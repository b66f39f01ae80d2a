package graph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"connectit/internal/parallel"
)

// Build constructs a symmetric CSR graph with n vertices from an undirected
// edge list. Self loops are dropped and parallel edges are deduplicated;
// adjacency lists are sorted ascending. Build panics if an endpoint is >= n;
// TryBuild is the error-returning variant for untrusted input.
func Build(n int, edges []Edge) *Graph {
	g, err := TryBuild(n, edges)
	if err != nil {
		panic(err.Error())
	}
	return g
}

// TryBuild is Build with endpoint validation reported as an error instead
// of a panic — the file-loading path uses it so malformed inputs surface as
// one-line errors naming the first out-of-range edge of the input.
//
// The construction is a bucket-partitioned parallel pipeline with no atomic
// operation in it (DESIGN.md §10 "Parallel construction and loading"): the
// fetch-add scatter it replaced serialized on its own stores and was 60 % of
// a build. Vertices are grouped into buckets of 2^s consecutive ids and the
// edge list into blocks, both sized by buildShape from n, the edge count and
// the pool width:
//
//  1. count: each block validates its edges and counts, in a row of its own,
//     the directed entries (both directions, self loops skipped) that fall
//     in each source bucket;
//  2. scan: one bucket-major exclusive scan gives every (bucket, block) pair
//     its own output range;
//  3. partition: each block writes its entries into its ranges with plain
//     stores, as the source's index within its bucket and the destination;
//  4. per bucket, on the pool: a counting sort by source, stable into
//     per-worker scratch (in place for the largest buckets), then a sort
//     of each list that is out of order (a radix sort for long lists in
//     scratch, slices.Sort otherwise) and a dedupe, written back to the
//     front of the bucket's range, recording each degree;
//  5. assemble: one ScanExclusive of the degrees gives Offsets, and the
//     buckets' runs are compacted left in place to give Adj.
//
// The output is canonical whatever the worker count. Adj is the partition
// array itself, so it keeps the duplicates' and self loops' share of the
// directed entries as spare capacity. The transient allocation besides the
// result is the count table and scratch within a quarter of the entries,
// plus, on graphs too large to pack an entry's source index and destination
// into 32 bits (over about 2^22 vertices), 2 bytes per entry for the index.
func TryBuild(n int, edges []Edge) (*Graph, error) {
	return build(n, edges, buildShape(n, len(edges)))
}

// shape is the sizing of one build.
type shape struct {
	bits   uint // a bucket is 2^bits consecutive vertices
	blocks int  // the edge list is cut into this many blocks
	packed bool // an entry holds its in-bucket source above its destination
}

// The sizes buildShape derives from.
const (
	// Buckets are 512 vertices, whose counters and entries stay
	// cache-resident while the bucket is sorted. Small graphs narrow them,
	// down to 64, so the pool still gets several buckets per worker.
	bucketBits    = 9
	minBucketBits = 6
	// At most 2^fanoutBits buckets, the write streams a block partitions
	// into: larger graphs widen their buckets instead, up to the width
	// whose in-bucket source index fits a uint16, which bounds the count
	// table up to n = 2^32.
	fanoutBits    = 12
	maxBucketBits = 16
	// A block is at least minBlockEdges edges, with at most four blocks per
	// worker and maxCounts (bucket, block) counters.
	minBlockEdges = 1 << 14
	maxCounts     = 1 << 20
)

// buildShape sizes a build of m edges over n vertices on the current pool.
func buildShape(n, m int) shape {
	p := parallel.Procs()
	dstBits := bits.Len(uint(max(n-1, 0)))
	s := min(max(bits.Len(uint(n/(4*p)))-1, minBucketBits), bucketBits)
	s = min(max(s, dstBits-fanoutBits), maxBucketBits)
	buckets := max((n+1<<s-1)>>s, 1)
	blocks := min(4*p, (m+minBlockEdges-1)/minBlockEdges, maxCounts/buckets)
	return shape{bits: uint(s), blocks: max(blocks, 1), packed: s+dstBits <= 32}
}

func build(n int, edges []Edge, sh shape) (*Graph, error) {
	s, blocks := sh.bits, sh.blocks
	buckets := (n + 1<<s - 1) >> s
	first := func(k int) int { return k * len(edges) / blocks }

	// Count, validating: firstBad[k] is one past the index of block k's
	// first out-of-range edge, so the lowest bad index is the first nonzero.
	counts := make([]uint64, blocks*buckets)
	firstBad := make([]int, blocks)
	parallel.ForGrained(blocks, 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			row := counts[k*buckets : (k+1)*buckets]
			for i := first(k); i < first(k+1); i++ {
				e := edges[i]
				if int(e.U) >= n || int(e.V) >= n {
					firstBad[k] = i + 1
					break
				}
				if e.U != e.V {
					row[e.U>>s]++
					row[e.V>>s]++
				}
			}
		}
	})
	for _, i := range firstBad {
		if i > 0 {
			e := edges[i-1]
			return nil, fmt.Errorf("graph: edge {%d, %d} endpoint out of range [0, %d)", e.U, e.V, n)
		}
	}

	// Scan in bucket-major order; bucket b's entries are
	// [starts[b], starts[b+1]).
	starts := make([]uint64, buckets+1)
	var total uint64
	for b := 0; b < buckets; b++ {
		starts[b] = total
		for k := 0; k < blocks; k++ {
			c := counts[k*buckets+b]
			counts[k*buckets+b] = total
			total += c
		}
	}
	starts[buckets] = total

	// Partition, each block advancing its own row of cursors. A packed
	// entry is index<<shift | destination; otherwise shift is 32, which
	// shifts the index out of the uint32, and the index goes to side.
	adj := make([]Vertex, total)
	var side []uint16
	shift := uint(32)
	if sh.packed {
		shift = uint(bits.Len(uint(max(n-1, 0))))
	} else {
		side = make([]uint16, total)
	}
	mask := Vertex(1)<<s - 1
	parallel.ForGrained(blocks, 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			next := counts[k*buckets : (k+1)*buckets]
			for _, e := range edges[first(k):first(k+1)] {
				if e.U == e.V {
					continue
				}
				p := next[e.U>>s]
				next[e.U>>s] = p + 1
				adj[p] = (e.U&mask)<<shift | e.V
				q := next[e.V>>s]
				next[e.V>>s] = q + 1
				adj[q] = (e.V&mask)<<shift | e.U
				if side != nil {
					side[p], side[q] = uint16(e.U&mask), uint16(e.V&mask)
				}
			}
		}
	})

	// Per bucket: group by source, sort and dedupe each list to the front
	// of the bucket's range, record the degrees. Buckets over limit entries
	// group in place, so all workers' scratch together stays within a
	// quarter of the entries however skewed the graph.
	offsets := make([]uint64, n+1)
	width := parallel.Width(buckets, 1)
	limit := int(total) / (4 * width)
	scratch := make([]bucketScratch, width)
	parallel.ForWorkerSized(buckets, 1, width, func(w *parallel.Worker, lo, hi int) {
		sc := &scratch[w.ID()]
		for b := lo; b < hi; b++ {
			from, to, v0 := starts[b], starts[b+1], b<<s
			var idx []uint16
			if side != nil {
				idx = side[from:to]
			}
			sc.sort(adj[from:to], idx, shift, offsets[v0:min(v0+1<<s, n)], limit)
		}
	})

	total = parallel.ScanExclusive(offsets)
	// Compact left in bucket order: a run only moves left, onto entries
	// already consumed, so one in-order pass of overlapping copies is safe.
	for b := 1; b < buckets; b++ {
		from, to := starts[b], offsets[b<<s]
		if from != to {
			end := offsets[min((b+1)<<s, n)]
			copy(adj[to:end], adj[from:from+end-to])
		}
	}
	return &Graph{Offsets: offsets, Adj: adj[:total]}, nil
}

// The radix sort of long lists takes lists longer than radixMin entries
// (and under 2^32, for its 32-bit counters), in digits of radixBits bits.
// Both were chosen by paired measurement of the RMAT set-up's build: 32 or
// 128 entries and 8–10 bits were no better.
const (
	radixMin  = 64
	radixBits = 11
)

// bucketScratch is one worker's reusable state for sorting buckets.
type bucketScratch struct {
	next, end []int    // list boundaries within the bucket
	tmp       []Vertex // the bucket's destinations grouped by source
	digits    [1 << radixBits]uint32
}

// sort groups one bucket's entries by source, sorts and dedupes each list
// into the front of adj, and stores each source's deduplicated degree in
// deg. Entry i's source index within the bucket is idx[i], or adj[i]>>shift
// when idx is nil; its destination is the low shift bits.
//
// A bucket of at most limit entries is grouped stably into scratch, so
// lists that arrive in order (a sorted edge list) stay in order: a long one
// is left as it is, a short one sorts in one pass. There a list longer than
// radixMin that is out of order is radix-sorted, with the part of adj it
// will be written back to as the second buffer: the whole bucket is in
// scratch, and the output so far ends before it. A larger bucket is
// grouped in place, which leaves no free space beside its lists, so they
// keep slices.Sort.
func (sc *bucketScratch) sort(adj []Vertex, idx []uint16, shift uint, deg []uint64, limit int) {
	nv := len(deg)
	if cap(sc.end) < nv {
		sc.next, sc.end = make([]int, nv), make([]int, nv)
	}
	next, end := sc.next[:nv], sc.end[:nv]
	clear(end)
	source := func(i int, a Vertex) int {
		if idx != nil {
			return int(idx[i])
		}
		return int(a >> shift)
	}
	for i, a := range adj {
		end[source(i, a)]++
	}
	sum := 0
	for k, c := range end {
		next[k] = sum
		sum += c
		end[k] = sum
	}
	dst := Vertex(1)<<shift - 1
	lists, scratched := adj, len(adj) <= limit
	if scratched {
		// Sized to the bucket, not doubled: a worker grows its scratch
		// only for a bucket larger than any it has sorted.
		if cap(sc.tmp) < len(adj) {
			sc.tmp = make([]Vertex, len(adj))
		}
		lists = sc.tmp[:len(adj)]
		for i, a := range adj {
			x := source(i, a)
			lists[next[x]] = a & dst
			next[x]++
		}
	} else {
		// Follow each misplaced entry's cycle, dropping it into the next
		// free slot of its own list, until an entry for list k comes back
		// to fill the slot the cycle started from.
		for k := range nv {
			for i := next[k]; i < end[k]; i = next[k] {
				a, x := adj[i], source(i, adj[i])
				for x != k {
					j := next[x]
					next[x] = j + 1
					b, y := adj[j], source(j, adj[j])
					adj[j] = a & dst
					a, x = b, y
				}
				adj[i] = a & dst
				next[k] = i + 1
			}
		}
	}
	// The sweep writes list[i] at or behind where it reads it, so the front
	// of adj fills while lists may still be read from it: the lists grouped
	// in place, or one an odd number of radix passes left at adj[out:],
	// whose entry i can only be overwritten by itself.
	out, start := 0, 0
	for k := range nv {
		list := lists[start:end[k]]
		start = end[k]
		switch {
		case len(list) <= radixMin || !scratched || uint64(len(list)) > math.MaxUint32:
			slices.Sort(list)
		case !slices.IsSorted(list):
			list = sc.radixSort(list, adj[out:out+len(list)])
		}
		first := out
		for i, v := range list {
			if i == 0 || v != list[i-1] {
				adj[out] = v
				out++
			}
		}
		deg[k] = uint64(out - first)
	}
}

// radixSort sorts list by least significant digit first, over the offsets
// from its least entry, moving it between list and buf, which is as long;
// it returns whichever of the two holds the result. Each pass counts only
// the digits the offsets reach, so short lists of small range pay little
// for the counters.
func (sc *bucketScratch) radixSort(list, buf []Vertex) []Vertex {
	lo, hi := list[0], list[0]
	for _, x := range list {
		lo, hi = min(lo, x), max(hi, x)
	}
	const mask = 1<<radixBits - 1
	digits := &sc.digits
	for shift := uint(0); (hi-lo)>>shift > 0; shift += radixBits {
		used := min(int((hi-lo)>>shift), mask) + 1
		clear(digits[:used])
		for _, x := range list {
			digits[(x-lo)>>shift&mask]++
		}
		var sum uint32
		for d, c := range digits[:used] {
			digits[d] = sum
			sum += c
		}
		for _, x := range list {
			d := (x - lo) >> shift & mask
			buf[digits[d]] = x
			digits[d]++
		}
		list, buf = buf, list
	}
	return list
}
