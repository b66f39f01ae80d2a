// Package sample implements ConnectIt's three sampling schemes (§3.2):
// k-out sampling (with the four edge-selection variants studied in Appendix
// C.4), breadth-first-search sampling, and low-diameter-decomposition
// sampling. Each scheme produces a partial connectivity labeling satisfying
// Definition 3.1 — a forest of depth-one stars — and, when requested, the
// subset of spanning-forest edges that induces exactly that labeling
// (Definition B.2).
package sample

import (
	"sync/atomic"

	"connectit/internal/bfs"
	"connectit/internal/concurrent"
	"connectit/internal/graph"
	"connectit/internal/ldd"
	"connectit/internal/parallel"
	"connectit/internal/unionfind"
)

// Result is the output of a sampling phase.
type Result struct {
	// Labels is a partial connectivity labeling in star form: for every v,
	// either Labels[v] == v, or Labels[v] == r with Labels[r] == r.
	Labels []uint32
	// Forest holds the spanning-forest edges discovered during sampling
	// (nil unless requested). Contracting them induces exactly Labels.
	Forest []graph.Edge
	// Canonical reports that every star is already rooted at its minimum
	// member, so the framework can skip Canonicalize. k-out sampling's
	// ID-linking union-find guarantees this; BFS/LDD stars are rooted at
	// arbitrary sources/centers and need the rewrite.
	Canonical bool
}

// KOutVariant selects how k-out sampling picks each vertex's edges.
type KOutVariant int

// The k-out edge-selection strategies of Appendix C.4.
const (
	// KOutHybrid takes the first incident edge plus k-1 uniformly random
	// ones: the paper's default, robust to adversarial vertex orders.
	KOutHybrid KOutVariant = iota
	// KOutAfforest takes the first k incident edges (Sutton et al.).
	KOutAfforest
	// KOutPure takes k uniformly random incident edges (Holm et al.).
	KOutPure
	// KOutMaxDeg takes the edge to the highest-degree neighbor plus k-1
	// random ones.
	KOutMaxDeg
)

func (v KOutVariant) String() string {
	switch v {
	case KOutHybrid:
		return "kout-hybrid"
	case KOutAfforest:
		return "kout-afforest"
	case KOutPure:
		return "kout-pure"
	case KOutMaxDeg:
		return "kout-maxdeg"
	}
	return "kout-unknown"
}

// KOut runs k-out sampling: it selects up to k edges out of each vertex per
// the variant, computes their connected components with a union-find
// (Union-Rem-CAS with SplitAtomicOne, the paper's fastest), and fully
// compresses the result into stars. It takes any graph representation
// (graph.Rep).
func KOut(g graph.Rep, k int, variant KOutVariant, seed uint64, forest bool) *Result {
	n := g.NumVertices()
	if k < 1 {
		k = 2
	}
	d := unionfind.MustNew(n, unionfind.Options{
		Union:         unionfind.UnionRemCAS,
		Splice:        unionfind.SplitAtomicOne,
		Find:          unionfind.FindNaive,
		RecordWitness: forest,
	})
	// The variant is resolved once per sweep, not per vertex. Every pick is
	// unioned whatever its id; the DSU records (v, u) witnesses itself when
	// forest is set.
	koutPositions(g, d, k, variant, seed)
	// The ID-linking union-find can never hook the minimum vertex of a
	// component (a hook always points to a smaller value), so after Flatten
	// every star is rooted at its minimum member.
	res := &Result{Labels: d.Labels(), Canonical: true}
	if forest {
		res.Forest = d.WitnessEdges(nil)
	}
	return res
}

// linePad is one cache line of vertices. Per-worker pick scratch, written
// for every vertex, sits at least this far apart in its shared array: with
// two workers' picks on one line, the compressed RMAT(19) solve ran about
// 1.4 times as long.
const linePad = 64 / 4

// koutPositions unions each vertex with its k-out picks, every one taken by
// adjacency position (graph.KOutPosition): the first lead positions (all k
// for Afforest, one for Hybrid, none for Pure and MaxDeg), then a random
// position for each of the other k-lead picks. The two built-in backends
// make no interface call per vertex: on the flat CSR one DSU.KOutCSR call
// does a whole chunk straight off the arrays, and on the block-coded
// backend each pick is one direct NeighborAt call, which decodes the pick's
// block only as far as the pick, and a vertex's picks go to one
// UnionNeighbors call. KOutMaxDeg on any backend, and every variant on
// another representation, read each list whole through NeighborsInto;
// KOutMaxDeg then puts the highest-degree neighbour (the first one, on
// ties) in place of pick 0. Picks and decode scratch are held per pool
// worker.
func koutPositions(g graph.Rep, d *unionfind.DSU, k int, variant KOutVariant, seed uint64) {
	lead := 0
	switch variant {
	case KOutAfforest:
		lead = k
	case KOutHybrid:
		lead = 1
	}
	maxDeg := variant == KOutMaxDeg
	const grain = 256
	n := g.NumVertices()
	if csr, ok := g.(*graph.Graph); ok && !maxDeg {
		parallel.ForGrained(n, grain, func(lo, hi int) {
			d.KOutCSR(lo, hi, csr.Offsets, csr.Adj, k, lead, seed)
		})
		return
	}
	// One allocation per call, whatever n is: worker w's picks start at
	// scratch[w*stride], padded apart by a cache line.
	stride := k + linePad
	width := parallel.Width(n, grain)
	scratch := make([]graph.Vertex, stride*width)
	if c, ok := g.(*graph.CompressedGraph); ok && !maxDeg {
		parallel.ForWorkerSized(n, grain, width, func(w *parallel.Worker, lo, hi int) {
			base := stride * w.ID()
			picks, degrees := scratch[base:base:base+k], c.Degrees
			for v := lo; v < hi; v++ {
				deg := int(degrees[v])
				if deg == 0 {
					continue
				}
				picks = picks[:0]
				for i := 0; i < k; i++ {
					if p, ok := graph.KOutPosition(uint64(v), i, deg, lead, seed); ok {
						picks = append(picks, c.NeighborAt(graph.Vertex(v), int(p)))
					}
				}
				d.UnionNeighbors(uint32(v), picks, 0, nil)
			}
		})
		return
	}
	bufs := make([][]graph.Vertex, width)
	parallel.ForWorkerSized(n, grain, width, func(w *parallel.Worker, lo, hi int) {
		base := stride * w.ID()
		buf, picks := bufs[w.ID()], scratch[base:base:base+k]
		for v := lo; v < hi; v++ {
			buf = g.NeighborsInto(graph.Vertex(v), buf)
			if len(buf) == 0 {
				continue
			}
			picks = picks[:0]
			for i := 0; i < k; i++ {
				if p, ok := graph.KOutPosition(uint64(v), i, len(buf), lead, seed); ok {
					picks = append(picks, buf[p])
				}
			}
			if maxDeg {
				best, bestDeg := buf[0], g.Degree(buf[0])
				for _, u := range buf[1:] {
					if du := g.Degree(u); du > bestDeg {
						best, bestDeg = u, du
					}
				}
				picks[0] = best
			}
			d.UnionNeighbors(uint32(v), picks, 0, nil)
		}
		bufs[w.ID()] = buf
	})
}

// BFS runs BFS sampling: up to c direction-optimizing BFS attempts from
// random sources, stopping as soon as an attempt covers more than 10% of the
// vertices (Algorithm 5). If no attempt does, the identity labeling is
// returned, exactly as the paper specifies. It takes any graph
// representation (graph.Rep).
func BFS(g graph.Rep, c int, seed uint64, forest bool) *Result {
	n := g.NumVertices()
	identity := func() *Result {
		labels := make([]uint32, n)
		parallel.Iota(labels)
		return &Result{Labels: labels}
	}
	if n == 0 {
		return identity()
	}
	if c < 1 {
		c = 3
	}
	for try := 0; try < c; try++ {
		src := graph.Vertex(graph.Hash64(uint64(try)^seed) % uint64(n))
		r := bfs.Run(g, src)
		if r.Visited*10 <= n {
			continue
		}
		// Root the star at the minimum visited vertex so the labeling is
		// already canonical (one star: a single reduction suffices).
		root := ^uint32(0)
		for v := 0; v < n; v++ {
			if r.Parent[v] != graph.None {
				root = uint32(v)
				break
			}
		}
		labels := make([]uint32, n)
		parallel.For(n, func(i int) {
			if r.Parent[i] != graph.None {
				labels[i] = root
			} else {
				labels[i] = uint32(i)
			}
		})
		res := &Result{Labels: labels, Canonical: true}
		if forest {
			res.Forest = treeEdges(r.Parent)
		}
		return res
	}
	return identity()
}

// LDD runs low-diameter-decomposition sampling: one application of
// Miller-Peng-Xu with parameter beta; the cluster labeling is the partial
// connectivity labeling (Algorithm 6). The decomposition's round budget is
// capped at O(log n / beta): late-waking vertices are left as singletons,
// which keeps the labeling valid (Definition 3.1) while bounding the
// sampling cost. It takes any graph representation (graph.Rep).
func LDD(g graph.Rep, beta float64, permute bool, seed uint64, forest bool) *Result {
	if beta <= 0 || beta > 1 {
		beta = 0.2
	}
	maxRounds := int(6.0/beta) + 10
	r := ldd.Decompose(g, ldd.Options{Beta: beta, Permute: permute, Seed: seed, MaxRounds: maxRounds})
	res := &Result{Labels: r.Cluster}
	if forest {
		res.Forest = treeEdges(r.Parent)
	}
	return res
}

// treeEdges converts a parent forest (parent[v] == v at roots, graph.None
// unreached) into witness edges assigned to the child endpoint, satisfying
// Definition B.2(3).
func treeEdges(parent []graph.Vertex) []graph.Edge {
	var out []graph.Edge
	for v, p := range parent {
		if p != graph.None && p != graph.Vertex(v) {
			out = append(out, graph.Edge{U: graph.Vertex(v), V: p})
		}
	}
	return out
}

// MostFrequent identifies the most frequently occurring label
// (IdentifyFrequent, Algorithm 1 line 6). For large inputs it samples a
// fixed number of vertices, as the paper's implementation does; small inputs
// are counted exactly.
func MostFrequent(labels []uint32, seed uint64) uint32 {
	n := len(labels)
	if n == 0 {
		return 0
	}
	const sampleThreshold = 1 << 16
	counts := make(map[uint32]int)
	if n <= sampleThreshold {
		for _, l := range labels {
			counts[l]++
		}
	} else {
		const samples = 4096
		for i := 0; i < samples; i++ {
			counts[labels[graph.Hash64(uint64(i)^seed)%uint64(n)]]++
		}
	}
	best, bestCount := labels[0], 0
	for l, c := range counts {
		if c > bestCount || (c == bestCount && l < best) {
			best, bestCount = l, c
		}
	}
	return best
}

// Canonicalize rewrites the star labeling in place so that every star is
// rooted at its minimum member. Rem's algorithms compare parent values as
// priorities and require the decreasing-parent invariant, which BFS/LDD
// stars rooted at arbitrary centers would violate (DESIGN.md §4). It
// returns the new label of the component formerly labeled old.
func Canonicalize(labels []uint32, old uint32) uint32 {
	n := len(labels)
	minOf := make([]uint32, n)
	parallel.For(n, func(i int) { minOf[i] = ^uint32(0) })
	parallel.For(n, func(i int) {
		concurrent.WriteMin(&minOf[labels[i]], uint32(i))
	})
	parallel.For(n, func(i int) {
		labels[i] = minOf[labels[i]]
	})
	if old == ^uint32(0) || int(old) >= n {
		return old
	}
	return atomic.LoadUint32(&minOf[old])
}

// Coverage returns the fraction of vertices carrying the given label.
func Coverage(labels []uint32, label uint32) float64 {
	if len(labels) == 0 {
		return 0
	}
	c := parallel.Count(len(labels), func(i int) bool { return labels[i] == label })
	return float64(c) / float64(len(labels))
}

// InterComponentEdges counts the directed edges of g whose endpoints carry
// different labels — the work remaining for the finish phase (the paper's
// inter-component edge statistic, Tables 6-7 and Figures 20/23).
func InterComponentEdges(g graph.Rep, labels []uint32) uint64 {
	n := g.NumVertices()
	var total atomic.Uint64
	parallel.ForGrained(n, 1024, func(lo, hi int) {
		var local uint64
		var buf []graph.Vertex
		for i := lo; i < hi; i++ {
			li := labels[i]
			buf = g.NeighborsInto(graph.Vertex(i), buf)
			for _, u := range buf {
				if labels[u] != li {
					local++
				}
			}
		}
		total.Add(local)
	})
	return total.Load()
}
