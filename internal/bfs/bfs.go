// Package bfs implements the direction-optimizing parallel breadth-first
// search of Beamer et al. used by ConnectIt's BFS sampling (§3.2) and the
// BFSCC baseline. The search switches from sparse top-down frontier
// expansion to dense bottom-up scanning when the frontier's incident edge
// count exceeds a fraction of the remaining edges, which is what makes BFS
// sampling competitive on low-diameter graphs with a massive component.
package bfs

import (
	"sync"
	"sync/atomic"

	"connectit/internal/graph"
	"connectit/internal/parallel"
)

// denom is the denominator of the direction-switch threshold: go bottom-up
// when the frontier's out-edges exceed m/denom (Beamer's alpha heuristic).
const denom = 20

// Result holds the output of a BFS.
type Result struct {
	// Parent[v] is v's parent in the BFS tree, Parent[src] == src, and
	// graph.None for unreached vertices.
	Parent []graph.Vertex
	// Rounds is the number of frontier expansions performed.
	Rounds int
	// Visited is the number of vertices reached, including src.
	Visited int
}

// Run performs a parallel direction-optimizing BFS from src. It takes
// any graph representation (graph.Rep), so the frontier expansions run
// directly on compressed encodings without materializing a flat CSR.
func Run(g graph.Rep, src graph.Vertex) *Result {
	n := g.NumVertices()
	parent := make([]graph.Vertex, n)
	parallel.For(n, func(i int) { parent[i] = graph.None })
	parent[src] = src

	// epoch[v] == round marks membership in the round's frontier; reused
	// across rounds without clearing.
	epoch := make([]uint32, n)
	frontier := []graph.Vertex{src}
	visited := 1
	rounds := 0
	totalEdges := uint64(g.NumDirectedEdges())

	for len(frontier) > 0 {
		rounds++
		round := uint32(rounds)
		frontierEdges := parallel.ReduceAdd(len(frontier), func(i int) uint64 {
			return uint64(g.Degree(frontier[i]))
		})
		if frontierEdges+uint64(len(frontier)) > totalEdges/denom {
			frontier = bottomUp(g, parent, frontier, epoch, round)
		} else {
			frontier = topDown(g, parent, frontier)
		}
		visited += len(frontier)
	}
	return &Result{Parent: parent, Rounds: rounds, Visited: visited}
}

// topDown expands the sparse frontier: each frontier vertex claims its
// unvisited neighbors with a CAS on the parent entry.
func topDown(g graph.Rep, parent []graph.Vertex, frontier []graph.Vertex) []graph.Vertex {
	var mu sync.Mutex
	var next []graph.Vertex
	parallel.ForGrained(len(frontier), 128, func(lo, hi int) {
		local := make([]graph.Vertex, 0, 4*(hi-lo))
		var buf []graph.Vertex
		for i := lo; i < hi; i++ {
			v := frontier[i]
			buf = g.NeighborsInto(v, buf)
			for _, u := range buf {
				if atomic.LoadUint32(&parent[u]) == graph.None &&
					atomic.CompareAndSwapUint32(&parent[u], graph.None, v) {
					local = append(local, u)
				}
			}
		}
		if len(local) > 0 {
			mu.Lock()
			next = append(next, local...)
			mu.Unlock()
		}
	})
	return next
}

// bottomUp scans all unvisited vertices for a neighbor in the current
// frontier (membership tested via the epoch array). Each unvisited vertex
// writes only its own parent entry; the next frontier is gathered from the
// epoch marks.
func bottomUp(g graph.Rep, parent []graph.Vertex, frontier []graph.Vertex, epoch []uint32, round uint32) []graph.Vertex {
	n := g.NumVertices()
	cur := round*2 - 1 // odd mark: current frontier; even mark: claimed
	parallel.For(len(frontier), func(i int) { atomic.StoreUint32(&epoch[frontier[i]], cur) })
	parallel.ForGrained(n, 1024, func(lo, hi int) {
		var buf []graph.Vertex
		for v := lo; v < hi; v++ {
			if atomic.LoadUint32(&parent[v]) != graph.None {
				continue
			}
			buf = g.NeighborsInto(graph.Vertex(v), buf)
			for _, u := range buf {
				if atomic.LoadUint32(&epoch[u]) == cur {
					atomic.StoreUint32(&parent[v], u)
					atomic.StoreUint32(&epoch[v], cur+1)
					break
				}
			}
		}
	})
	return parallel.FilterIndices(n, func(i int) bool { return epoch[i] == cur+1 })
}
