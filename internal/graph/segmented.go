package graph

import (
	"fmt"
	"sort"
	"sync/atomic"

	"connectit/internal/parallel"
)

// SegmentedGraph is the multi-segment byte-compressed backend: k
// independently encoded segments, each covering a contiguous vertex range
// with its own uint32 byte-offset index over its own encoded adjacency, so
// the whole graph is no longer bound by the 4 GiB single-segment cap — each
// segment is, and segments are as numerous as the input needs.
//
// The encoding inside a segment is exactly the CompressedGraph encoding
// (block-coded lists against global vertex ids), so the two backends share
// the encoder and the decoder; only where a vertex's bytes live differs.
// SegmentedGraph is a first-class Rep backend: every kernel runs on it
// through the interface, and NeighborsInto resolves the segment per source
// vertex with a cached-last-segment fast path (kernels sweep vertices in
// order, so consecutive lookups land in the same segment almost always) and
// a binary search over the k+1 range boundaries on a miss.
//
// Loaded from a .cbin file on unix, each segment is its own independent
// read-only memory mapping: opening is O(index bytes) — the adjacency
// payload is never read at load time — and pages of it enter memory only as
// traversal touches them, so a graph larger than RAM executes out of core
// with the OS paging segments in and out on demand. Close releases the
// per-segment mappings.
type SegmentedGraph struct {
	segs   []segmentRef
	starts []uint32 // first vertex of each segment; len k+1, starts[k] = n
	n      int
	m      uint64 // directed edge count
	hint   atomic.Uint32
	maps   [][]byte // per-segment mmap regions to release on Close; nil entries are heap-backed
}

// segmentRef is one segment's arrays: byte offsets (relative to the
// segment's data, len count+1), per-vertex degrees (len count), and the
// encoded adjacency. m is the segment's directed edge count.
type segmentRef struct {
	offsets []uint32
	degrees []uint32
	data    []byte
	m       uint64
}

// TrySegment byte-encodes g as a SegmentedGraph with at most segmentBytes
// of encoded adjacency per segment (0 or anything beyond the 4 GiB
// offset-index cap selects the cap). Unlike TryCompress it always returns
// the segmented representation, even when one segment would do — the forced
// path behind -format segmented, benchmarks, and tests. A vertex whose own
// encoded list exceeds segmentBytes gets a segment to itself rather than
// failing; only a list beyond the hard uint32 cap is an error, and no
// realizable input reaches it.
func TrySegment(g *Graph, segmentBytes uint64) (*SegmentedGraph, error) {
	if segmentBytes == 0 || segmentBytes > maxCompressedBytes {
		segmentBytes = maxCompressedBytes
	}
	sizes := encodedSizes(g)
	parallel.ScanExclusive(sizes)
	return segmentBySizes(g, sizes, segmentBytes, maxCompressedBytes)
}

// segmentBySizes builds the segmented representation from the global
// exclusive scan of per-vertex encoded sizes, cutting segments at vertex
// boundaries so each holds at most segBytes of encoded adjacency (a single
// vertex larger than segBytes becomes its own oversized segment). capBytes
// is the injectable hard per-segment limit — the real uint32 cap in
// production, small in tests exercising the overflow error.
func segmentBySizes(g *Graph, prefix []uint64, segBytes, capBytes uint64) (*SegmentedGraph, error) {
	n := g.NumVertices()
	bounds := []int{0}
	segStart := uint64(0)
	for v := 0; v < n; v++ {
		if vb := prefix[v+1] - prefix[v]; vb > capBytes {
			return nil, fmt.Errorf("graph: vertex %d's encoded adjacency needs %d bytes, beyond the %d-byte single-segment offset-index cap", v, vb, capBytes)
		}
		if prefix[v+1]-segStart > segBytes && prefix[v] > segStart {
			bounds = append(bounds, v)
			segStart = prefix[v]
		}
	}
	bounds = append(bounds, n)

	s := &SegmentedGraph{
		segs:   make([]segmentRef, len(bounds)-1),
		starts: make([]uint32, len(bounds)),
		n:      n,
		m:      uint64(len(g.Adj)),
	}
	for i := range s.segs {
		lo, hi := bounds[i], bounds[i+1]
		offsets, degrees, data := encodeRange(g, prefix, lo, hi)
		s.segs[i] = segmentRef{
			offsets: offsets,
			degrees: degrees,
			data:    data,
			m:       g.Offsets[hi] - g.Offsets[lo],
		}
		s.starts[i] = uint32(lo)
	}
	s.starts[len(bounds)-1] = uint32(n)
	return s, nil
}

// NumVertices returns the number of vertices.
func (s *SegmentedGraph) NumVertices() int { return s.n }

// NumDirectedEdges returns the number of directed edges stored.
func (s *SegmentedGraph) NumDirectedEdges() int { return int(s.m) }

// NumEdges returns the number of undirected edges m.
func (s *SegmentedGraph) NumEdges() int { return int(s.m) / 2 }

// NumSegments returns the number of segments.
func (s *SegmentedGraph) NumSegments() int { return len(s.segs) }

// Degree returns the degree of v. It checks the cached-last-segment hint
// but never updates it on a miss: finish kernels probe the degree of random
// neighbors while sweeping sources in order, and letting those probes steal
// the hint would thrash the cache line the source sweep depends on.
func (s *SegmentedGraph) Degree(v Vertex) int {
	h := s.hint.Load()
	if uint32(v) < s.starts[h] || uint32(v) >= s.starts[h+1] {
		h = uint32(sort.Search(len(s.segs)-1, func(i int) bool { return s.starts[i+1] > uint32(v) }))
	}
	return int(s.segs[h].degrees[uint32(v)-s.starts[h]])
}

// NeighborsInto decodes v's neighbors into buf (growing it when its
// capacity is insufficient) and returns the decoded slice, resolving v's
// segment through the cached-last-segment fast path.
func (s *SegmentedGraph) NeighborsInto(v Vertex, buf []Vertex) []Vertex {
	i, seg := s.resolve(v)
	local := uint32(v) - s.starts[i]
	return decodeList(seg.data, int(seg.offsets[local]), v, int(seg.degrees[local]), buf)
}

// NeighborsAt writes the neighbor at position pos[i] of v's list into
// out[i], decoding only the block that holds each position.
func (s *SegmentedGraph) NeighborsAt(v Vertex, pos, out []Vertex) {
	i, seg := s.resolve(v)
	local := uint32(v) - s.starts[i]
	listAt(seg.data, int(seg.offsets[local]), v, int(seg.degrees[local]), pos, out)
}

// resolve returns v's segment index and segment, updating the hint on a
// miss.
func (s *SegmentedGraph) resolve(v Vertex) (uint32, *segmentRef) {
	h := s.hint.Load()
	if uint32(v) >= s.starts[h] && uint32(v) < s.starts[h+1] {
		return h, &s.segs[h]
	}
	i := uint32(sort.Search(len(s.segs)-1, func(i int) bool { return s.starts[i+1] > uint32(v) }))
	s.hint.Store(i)
	return i, &s.segs[i]
}

// SizeBytes returns the resident size of the segmented structure in bytes:
// every segment's offset index, degree array, and encoded adjacency, plus
// the range-boundary table.
func (s *SegmentedGraph) SizeBytes() int {
	total := 4 * len(s.starts)
	for i := range s.segs {
		total += 4*len(s.segs[i].offsets) + 4*len(s.segs[i].degrees) + len(s.segs[i].data)
	}
	return total
}

// String summarizes the graph.
func (s *SegmentedGraph) String() string {
	return fmt.Sprintf("segmented{n=%d m=%d segments=%d bytes=%d}", s.NumVertices(), s.NumEdges(), s.NumSegments(), s.SizeBytes())
}

// Decompress reconstructs the plain CSR graph (used by tests and the CLI's
// format conversion).
func (s *SegmentedGraph) Decompress() *Graph {
	n := s.NumVertices()
	offsets := make([]uint64, n+1)
	for v := 0; v < n; v++ {
		offsets[v] = uint64(s.Degree(Vertex(v)))
	}
	total := parallel.ScanExclusive(offsets)
	adj := make([]Vertex, total)
	parallel.ForGrained(n, 256, func(lo, hi int) {
		var buf []Vertex
		for v := lo; v < hi; v++ {
			buf = s.NeighborsInto(Vertex(v), buf)
			copy(adj[offsets[v]:offsets[v+1]], buf)
		}
	})
	return &Graph{Offsets: offsets, Adj: adj}
}

// Close releases the per-segment memory mappings backing a graph opened
// with LoadCBIN. It is a no-op for graphs built in memory or loaded without
// mmap. The graph must not be used after Close.
func (s *SegmentedGraph) Close() error {
	var first error
	for i, m := range s.maps {
		if m == nil {
			continue
		}
		s.maps[i] = nil
		if err := munmap(m); err != nil && first == nil {
			first = err
		}
	}
	s.maps, s.segs, s.starts = nil, nil, nil
	return first
}

// Materialize returns the flat CSR form of any registered representation:
// CSR graphs pass through, compressed and segmented graphs decompress. It
// backs format conversions (the CLI's -convert) that need to re-encode a
// loaded graph.
func Materialize(r Rep) (*Graph, error) {
	switch g := r.(type) {
	case *Graph:
		return g, nil
	case *CompressedGraph:
		return g.Decompress(), nil
	case *SegmentedGraph:
		return g.Decompress(), nil
	}
	return nil, fmt.Errorf("graph: cannot materialize representation %T", r)
}
