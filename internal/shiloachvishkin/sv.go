// Package shiloachvishkin implements the Shiloach-Vishkin connectivity
// algorithm (Algorithm 15) in ConnectIt's writeMin formulation: each round
// maps over all edges hooking larger roots onto smaller incident roots with
// a priority update, then fully compresses every tree by pointer jumping.
// Only roots are hooked, so the algorithm is root-based and monotone, and it
// supports spanning forest via a packed writeMin that carries the witness
// edge with the winning hook.
package shiloachvishkin

import (
	"sort"
	"sync/atomic"

	"connectit/internal/concurrent"
	"connectit/internal/graph"
	"connectit/internal/parallel"
)

// Run finishes connectivity over g starting from the labeling in parent
// (identity for a full run, or a sampled labeling satisfying Definition
// 3.1). Vertices with skip[v] true do not have their out-edges processed
// (the sampled most-frequent component). skip may be nil. It takes any
// graph representation (graph.Rep) and returns the number of rounds
// executed.
func Run(g graph.Rep, parent []uint32, skip []bool) int {
	n := g.NumVertices()
	rounds := 0
	// The hook and compress bodies are built once, outside the round loop:
	// a closure constructed per round would cost one heap allocation per
	// sweep on the pool dispatch path.
	var changed atomic.Bool
	hookBody := func(lo, hi int) {
		local := false
		var buf []graph.Vertex
		for v := lo; v < hi; v++ {
			if skip != nil && skip[v] {
				continue
			}
			buf = g.NeighborsInto(graph.Vertex(v), buf)
			for _, u := range buf {
				pv := atomic.LoadUint32(&parent[v])
				pu := atomic.LoadUint32(&parent[u])
				if pv == pu {
					continue
				}
				hi32, lo32 := pv, pu
				if hi32 < lo32 {
					hi32, lo32 = lo32, hi32
				}
				// Hook the larger root below the smaller label.
				if atomic.LoadUint32(&parent[hi32]) == hi32 &&
					concurrent.WriteMin(&parent[hi32], lo32) {
					local = true
				}
			}
		}
		if local {
			changed.Store(true)
		}
	}
	compressBody := compressBodyFor(parent)
	for {
		rounds++
		changed.Store(false)
		parallel.ForGrained(n, 256, hookBody)
		if !changed.Load() {
			return rounds
		}
		parallel.ForGrained(n, compressGrain, compressBody)
	}
}

// RunForest is Run with spanning-forest witness recording: it returns the
// rounds executed and appends to forest one witness edge per hook, which
// together with the input labeling's forest spans the graph (Theorem 6).
// Hooks go through a packed writeMin so the edge that wins the final hook of
// each root in a round is the edge recorded.
func RunForest(g *graph.Graph, parent []uint32, skip []bool, forest [][2]uint32) (int, [][2]uint32) {
	n := g.NumVertices()
	hooks := make([]uint64, n)
	parallel.For(n, func(i int) { hooks[i] = concurrent.Pack(^uint32(0), 0) })
	rounds := 0
	for {
		rounds++
		var changed atomic.Bool
		parallel.ForGrained(n, 256, func(lo, hi int) {
			local := false
			for v := lo; v < hi; v++ {
				if skip != nil && skip[v] {
					continue
				}
				off := g.Offsets[v]
				for i, u := range g.Neighbors(graph.Vertex(v)) {
					pv := atomic.LoadUint32(&parent[v])
					pu := atomic.LoadUint32(&parent[u])
					if pv == pu {
						continue
					}
					hi32, lo32 := pv, pu
					if hi32 < lo32 {
						hi32, lo32 = lo32, hi32
					}
					if atomic.LoadUint32(&parent[hi32]) == hi32 &&
						concurrent.WriteMinPacked(&hooks[hi32], lo32, uint32(off)+uint32(i)) {
						local = true
					}
				}
			}
			if local {
				changed.Store(true)
			}
		})
		if !changed.Load() {
			return rounds, forest
		}
		// Apply phase: install the winning hook of each root and record the
		// witness edge the first (and only) time the root is hooked.
		applied := make([]bool, n)
		parallel.For(n, func(i int) {
			pri, ref := concurrent.Unpack(hooks[i])
			if pri < atomic.LoadUint32(&parent[i]) {
				atomic.StoreUint32(&parent[i], pri)
				applied[i] = true
				_ = ref
			}
		})
		for v := 0; v < n; v++ {
			if applied[v] {
				_, ref := concurrent.Unpack(hooks[v])
				src := edgeSource(g, uint64(ref))
				forest = append(forest, [2]uint32{src, g.Adj[ref]})
			}
		}
		compress(parent)
	}
}

// compressGrain is the chunk size of the compression sweep.
const compressGrain = 1024

// compressBodyFor returns the pointer-jumping sweep body over parent. Each
// vertex stores only its own entry, so per-slot stores are safe; loads are
// atomic.
func compressBodyFor(parent []uint32) func(lo, hi int) {
	return func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := atomic.LoadUint32(&parent[i])
			for {
				pr := atomic.LoadUint32(&parent[r])
				if pr == r {
					break
				}
				r = pr
			}
			atomic.StoreUint32(&parent[i], r)
		}
	}
}

// compress pointer-jumps every vertex to its root (one-shot form of
// compressBodyFor for callers outside a round loop).
func compress(parent []uint32) {
	parallel.ForGrained(len(parent), compressGrain, compressBodyFor(parent))
}

// edgeSource recovers the source vertex of the directed edge stored at
// adjacency index idx by binary search over the offsets array.
func edgeSource(g *graph.Graph, idx uint64) uint32 {
	v := sort.Search(g.NumVertices(), func(v int) bool { return g.Offsets[v+1] > idx })
	return uint32(v)
}
