// Package labelprop implements the folklore Label-Propagation connectivity
// algorithm (§B.2.6): a frontier-based min-label flood, equivalent to
// iterated sparse matrix-vector multiplication over the (min, min) semiring.
// Each round, every frontier vertex exchanges labels with its neighbors via
// writeMin; vertices whose label changed form the next frontier. The
// algorithm terminates within D rounds for diameter D, which is what makes
// it catastrophically slow on high-diameter graphs (the paper's road_usa
// result) — a behaviour reproduced by the benchmarks.
package labelprop

import (
	"sync/atomic"

	"connectit/internal/graph"
	"connectit/internal/minlabel"
	"connectit/internal/parallel"
)

// Run refines the labeling in parent to connected components. favored,
// when non-nil, marks the vertices of the sampled most-frequent component:
// their out-edges are not traversed and their IDs compare smaller than every
// other label, so their labels can only spread inward via their neighbors'
// own edge scans (Theorem 4). It takes any graph representation
// (graph.Rep) and returns the number of rounds.
func Run(g graph.Rep, parent []uint32, favored []bool) int {
	n := g.NumVertices()
	skip := favored
	ord := minlabel.Order{Favored: favored}

	// epoch[v] == round marks membership in the next frontier.
	epoch := make([]uint32, n)

	// The frontier filter and the exchange body are built once outside the
	// round loop: the filter reuses its count/output scratch across rounds
	// (D rounds on a diameter-D graph would otherwise allocate two arrays
	// each), and a per-round closure would cost a heap allocation per sweep.
	var filter parallel.Filter
	round := uint32(0)
	var frontier []uint32
	exchange := func(lo, hi int) {
		var buf []graph.Vertex
		for i := lo; i < hi; i++ {
			v := frontier[i]
			buf = g.NeighborsInto(v, buf)
			for _, u := range buf {
				pv := atomic.LoadUint32(&parent[v])
				// Push v's label to u.
				if ord.WriteMin(&parent[u], pv) {
					if skip == nil || !skip[u] {
						atomic.StoreUint32(&epoch[u], round)
					}
				} else if pu := atomic.LoadUint32(&parent[u]); ord.Less(pu, pv) {
					// Pull u's label into v.
					if ord.WriteMin(&parent[v], pu) {
						atomic.StoreUint32(&epoch[v], round)
					}
				}
			}
		}
	}
	nextFrontier := func(i int) bool { return epoch[i] == round }

	frontier = filter.Indices(n, func(i int) bool {
		return (skip == nil || !skip[i]) && g.Degree(graph.Vertex(i)) > 0
	})
	for len(frontier) > 0 {
		round++
		parallel.ForGrained(len(frontier), 128, exchange)
		frontier = filter.Indices(n, nextFrontier)
	}
	return int(round)
}
