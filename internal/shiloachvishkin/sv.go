// Package shiloachvishkin implements the Shiloach-Vishkin connectivity
// algorithm (Algorithm 15) in ConnectIt's writeMin formulation: each round
// maps over all edges hooking larger roots onto smaller incident roots with
// a priority update, then fully compresses every tree by pointer jumping.
// Only roots are hooked, so the algorithm is root-based and monotone, and it
// supports spanning forest via a packed writeMin that carries the witness
// edge with the winning hook (EdgeForestRunner, which serves both the static
// forest and the Type (ii) stream).
package shiloachvishkin

import (
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
	compressBody := func(lo, hi int) { compressRange(parent, lo, hi) }
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

// compressGrain is the chunk size of the compression sweep.
const compressGrain = 1024

// compressRange pointer-jumps every vertex in [lo, hi) to its root. Each
// vertex stores only its own entry, so per-slot stores are safe; loads are
// atomic.
func compressRange(parent []uint32, lo, hi int) {
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
