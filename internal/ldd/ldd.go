// Package ldd implements the Miller–Peng–Xu low-diameter decomposition used
// by ConnectIt's LDD sampling (§3.2) and the work-efficient connectivity
// baseline of Shun et al. [94].
//
// Each vertex draws an independent geometric start time with parameter beta
// (the discrete analog of the exponential shifts in MPX); at round t every
// still-uncovered vertex whose start time has arrived begins a cluster, and
// all clusters expand by one synchronous BFS step per round, claiming
// vertices with CAS. The result is a partition into clusters of strong
// diameter O(log n / beta), cutting O(beta*m) edges in expectation.
package ldd

import (
	"math"
	"sync"
	"sync/atomic"

	"connectit/internal/graph"
	"connectit/internal/parallel"
)

// Options configures a decomposition.
type Options struct {
	// Beta is the decomposition parameter in (0, 1]: larger beta gives
	// smaller clusters and more cut edges.
	Beta float64
	// Permute randomizes which vertices receive early start times. With
	// Permute false, start times follow the original vertex order, which
	// mirrors the paper's non-permuted variant (Figures 19-21).
	Permute bool
	// Seed drives the geometric samples.
	Seed uint64
	// MaxRounds, when positive, stops the decomposition after that many
	// synchronous rounds, leaving still-uncovered vertices as singleton
	// clusters. Sampling uses this to bound the cost of the decomposition
	// (a partial clustering still satisfies Definition 3.1); the full
	// decomposition (MaxRounds == 0) is what WorkEfficientCC consumes.
	MaxRounds int
}

// Result holds a decomposition.
type Result struct {
	// Cluster[v] is the cluster center that claimed v (Cluster[c] == c for
	// centers). Every vertex is assigned.
	Cluster []graph.Vertex
	// Parent[v] is the vertex that claimed v during cluster growth
	// (Parent[c] == c for centers); these edges form a BFS forest of the
	// clusters and supply spanning-forest witnesses (Definition B.2).
	Parent []graph.Vertex
	// Rounds is the number of synchronous expansion rounds.
	Rounds int
}

// Decompose partitions g into low-diameter clusters. It takes any graph
// representation (graph.Rep), so cluster growth runs directly on compressed
// encodings.
func Decompose(g graph.Rep, opt Options) *Result {
	n := g.NumVertices()
	beta := opt.Beta
	if beta <= 0 || beta > 1 {
		beta = 0.2
	}
	cluster := make([]graph.Vertex, n)
	parent := make([]graph.Vertex, n)
	start := make([]uint32, n)
	parallel.For(n, func(i int) {
		cluster[i] = graph.None
		parent[i] = graph.None
		// MPX exponential shifts: the number of clusters started by round t
		// grows as e^(beta*t), so the vertex of rank r wakes at round
		// ln(r+1)/beta — one cluster at round zero, exponentially more
		// later. This is the "add vertices according to an exponential
		// distribution in order of the permutation" simulation of §3.2.
		rank := uint64(i)
		if opt.Permute {
			rank = graph.Hash64(uint64(i)^opt.Seed) % uint64(n)
		}
		start[i] = uint32(math.Log1p(float64(rank)) / beta)
	})

	// Bucket vertices by start round so each round wakes only its own
	// candidates instead of scanning all n vertices per round.
	maxStart := uint32(0)
	for _, s := range start {
		if s > maxStart {
			maxStart = s
		}
	}
	buckets := make([][]graph.Vertex, maxStart+1)
	for v, s := range start {
		buckets[s] = append(buckets[s], graph.Vertex(v))
	}

	covered := 0
	round := uint32(0)
	epoch := make([]uint32, n)
	var frontier []graph.Vertex
	for covered < n {
		// Wake uncovered vertices whose start time has arrived; they become
		// centers of their own clusters.
		var centers []graph.Vertex
		if round <= maxStart {
			for _, c := range buckets[round] {
				if cluster[c] == graph.None {
					centers = append(centers, c)
				}
			}
		} else if len(frontier) == 0 {
			// Past the last start time with an empty frontier: all
			// remaining uncovered vertices become centers (cannot happen
			// with geometric starts, but keeps the loop total).
			centers = parallel.FilterIndices(n, func(i int) bool {
				return cluster[i] == graph.None
			})
		}
		for _, c := range centers {
			// centers is computed from a quiescent snapshot; direct stores.
			cluster[c] = c
			parent[c] = c
		}
		frontier = append(frontier, centers...)
		covered += len(centers)

		// One synchronous expansion step for all active clusters, direction
		// optimized like BFS: when the frontier is edge-heavy, unclaimed
		// vertices scan for any frontier neighbor and adopt its cluster
		// (MPX permits arbitrary tie-breaking among simultaneous claims).
		frontierEdges := parallel.ReduceAdd(len(frontier), func(i int) uint64 {
			return uint64(g.Degree(frontier[i]))
		})
		var next []graph.Vertex
		if frontierEdges+uint64(len(frontier)) > uint64(g.NumDirectedEdges())/20 {
			cur := 2*uint32(round) + 1
			parallel.For(len(frontier), func(i int) {
				atomic.StoreUint32(&epoch[frontier[i]], cur)
			})
			parallel.ForGrained(n, 1024, func(lo, hi int) {
				var buf []graph.Vertex
				for v := lo; v < hi; v++ {
					if atomic.LoadUint32(&cluster[v]) != graph.None {
						continue
					}
					buf = g.NeighborsInto(graph.Vertex(v), buf)
					for _, u := range buf {
						if atomic.LoadUint32(&epoch[u]) == cur {
							atomic.StoreUint32(&cluster[v], atomic.LoadUint32(&cluster[u]))
							atomic.StoreUint32(&parent[v], u)
							atomic.StoreUint32(&epoch[v], cur+1)
							break
						}
					}
				}
			})
			next = parallel.FilterIndices(n, func(i int) bool { return epoch[i] == cur+1 })
		} else {
			var mu sync.Mutex
			parallel.ForGrained(len(frontier), 64, func(lo, hi int) {
				var local, buf []graph.Vertex
				for i := lo; i < hi; i++ {
					v := frontier[i]
					cv := cluster[v]
					buf = g.NeighborsInto(v, buf)
					for _, u := range buf {
						if atomic.LoadUint32(&cluster[u]) == graph.None &&
							atomic.CompareAndSwapUint32(&cluster[u], graph.None, cv) {
							atomic.StoreUint32(&parent[u], v)
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
		}
		covered += len(next)
		frontier = next
		round++
		if opt.MaxRounds > 0 && int(round) >= opt.MaxRounds {
			break
		}
	}
	if covered < n {
		// Round budget exhausted: uncovered vertices become singletons.
		parallel.For(n, func(i int) {
			if cluster[i] == graph.None {
				cluster[i] = graph.Vertex(i)
				parent[i] = graph.Vertex(i)
			}
		})
	}
	return &Result{Cluster: cluster, Parent: parent, Rounds: int(round)}
}

// NumClusters counts the distinct clusters in a decomposition.
func (r *Result) NumClusters() int {
	return int(parallel.Count(len(r.Cluster), func(i int) bool {
		return r.Cluster[i] == graph.Vertex(i)
	}))
}

// CutEdges counts the directed edges of g whose endpoints lie in different
// clusters (the paper's inter-cluster edge statistic, Figures 19-20).
func (r *Result) CutEdges(g *graph.Graph) uint64 {
	n := g.NumVertices()
	return parallel.ReduceAdd(n, func(i int) uint64 {
		var c uint64
		ci := r.Cluster[i]
		for _, u := range g.Neighbors(graph.Vertex(i)) {
			if r.Cluster[u] != ci {
				c++
			}
		}
		return c
	})
}
