package graph

// This file contains the synthetic graph generators used by the evaluation.
// Each paper input graph is mapped to a generator of the same class
// (DESIGN.md §8): RMAT and Barabási–Albert for social/web networks, a 2-D
// grid for the road_usa high-diameter network, Erdős–Rényi for uniform
// random graphs, and small fixture graphs for tests.

import (
	"math"

	"connectit/internal/parallel"
)

// RMAT generates an RMAT (recursive matrix) power-law graph with n = 2^scale
// vertices and approximately m undirected edges, using partition
// probabilities (a, b, c) as in the paper's streaming experiments
// ((0.5, 0.1, 0.1) in §4.4). Self loops and duplicates are removed by Build,
// so the realized edge count can be slightly below m.
func RMAT(scale int, m int, a, b, c float64, seed uint64) *Graph {
	return Build(1<<scale, RMATEdges(scale, m, a, b, c, seed))
}

// RMATEdges generates the raw RMAT edge stream without building a graph.
// It is used directly by the streaming experiments, which ingest COO batches.
//
// The stream is defined by one rng drawing scale numbers per edge in edge
// order. Every edge consumes exactly scale draws and the rng is seekable
// (rng.skip), so chunks of edges are generated in parallel, each from an rng
// positioned at its first edge: the output is the sequential stream, bit for
// bit, whatever the worker count.
//
// Each draw picks a quadrant with no branch on it. The probabilities are
// non-negative, so the thresholds ta ≤ tb ≤ tc split the draws into the
// quadrants in order; with x ≥ ta, x ≥ tb and x ≥ tc as 0/1, u takes the
// bit when x ≥ tb and v when an odd number of the three hold (1 is the
// top-right quadrant, 3 the bottom-right). Bits are shifted in from the
// top down, the order of the draws.
func RMATEdges(scale int, m int, a, b, c float64, seed uint64) []Edge {
	ta, tb, tc := drawBelow(a), drawBelow(a+b), drawBelow(a+b+c)
	edges := make([]Edge, m)
	parallel.ForGrained(m, 4096, func(lo, hi int) {
		r := *newRNG(seed)
		r.skip(uint64(scale) * uint64(lo))
		for i := lo; i < hi; i++ {
			var u, v uint64
			for range scale {
				x := r.next() >> 11
				ub := b2u(x >= tb)
				u = u<<1 | ub
				v = v<<1 | (b2u(x >= ta) ^ ub ^ b2u(x >= tc))
			}
			edges[i] = Edge{Vertex(u), Vertex(v)}
		}
	})
	return edges
}

// b2u is 1 for true and 0 for false; the compiler emits it as a SETcc.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// drawBelow returns the integer threshold t for which a 53-bit draw x has
// x < t exactly when r.float() = x/2⁵³ < p: x/2⁵³ and p·2⁵³ are exact, so
// the float compare is x < ceil(p·2⁵³).
func drawBelow(p float64) uint64 {
	switch {
	case !(p > 0): // also NaN, which no draw is below
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// BarabasiAlbert generates a preferential-attachment graph with n vertices
// where each new vertex attaches k edges to existing vertices (so m ≈ k·n,
// matching the paper's BA stream with m = 10n for k = 10).
func BarabasiAlbert(n, k int, seed uint64) *Graph {
	return Build(n, BarabasiAlbertEdges(n, k, seed))
}

// BarabasiAlbertEdges generates the raw Barabási–Albert edge stream using
// the standard repeated-endpoint trick: sampling a uniform position in the
// edge list so far selects a vertex with probability proportional to degree.
func BarabasiAlbertEdges(n, k int, seed uint64) []Edge {
	if n < 2 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	r := newRNG(seed)
	// endpoints records every edge endpoint; picking a uniform element
	// samples proportionally to degree.
	endpoints := make([]Vertex, 0, 2*n*k)
	edges := make([]Edge, 0, n*k)
	endpoints = append(endpoints, 0, 1)
	edges = append(edges, Edge{0, 1})
	for v := 2; v < n; v++ {
		for e := 0; e < k; e++ {
			var t Vertex
			if r.float() < 0.1 || len(endpoints) == 0 {
				t = Vertex(r.intn(uint64(v)))
			} else {
				t = endpoints[r.intn(uint64(len(endpoints)))]
			}
			edges = append(edges, Edge{Vertex(v), t})
			endpoints = append(endpoints, Vertex(v), t)
		}
	}
	return edges
}

// ErdosRenyi generates a uniform random graph with n vertices and m edges;
// with no vertices it is the empty graph.
func ErdosRenyi(n, m int, seed uint64) *Graph {
	if n == 0 {
		return Build(0, nil)
	}
	r := newRNG(seed)
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{Vertex(r.intn(uint64(n))), Vertex(r.intn(uint64(n)))}
	}
	return Build(n, edges)
}

// Grid2D generates a rows×cols 2-D mesh: the high-diameter, low-degree
// analog of the road_usa network (diameter rows+cols-2, degrees 2–4).
func Grid2D(rows, cols int) *Graph {
	n := rows * cols
	edges := make([]Edge, 0, 2*n)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := Vertex(i*cols + j)
			if j+1 < cols {
				edges = append(edges, Edge{v, v + 1})
			}
			if i+1 < rows {
				edges = append(edges, Edge{v, v + Vertex(cols)})
			}
		}
	}
	return Build(n, edges)
}

// Path generates a path graph on n vertices.
func Path(n int) *Graph {
	edges := make([]Edge, 0, max(n-1, 0))
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{Vertex(i), Vertex(i + 1)})
	}
	return Build(n, edges)
}

// Cycle generates a cycle on n vertices.
func Cycle(n int) *Graph {
	edges := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{Vertex(i), Vertex((i + 1) % n)})
	}
	return Build(n, edges)
}

// Star generates a star with center 0 and n-1 leaves.
func Star(n int) *Graph {
	edges := make([]Edge, 0, max(n-1, 0))
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{0, Vertex(i)})
	}
	return Build(n, edges)
}

// Cliques generates k disjoint cliques of size s each (k components).
// It is the adversarial many-components fixture used by the tests.
func Cliques(k, s int) *Graph {
	edges := make([]Edge, 0, k*s*(s-1)/2)
	for c := 0; c < k; c++ {
		base := c * s
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				edges = append(edges, Edge{Vertex(base + i), Vertex(base + j)})
			}
		}
	}
	return Build(k*s, edges)
}

// WebLike generates an RMAT-style graph where a fraction of the vertices are
// isolated, mimicking the many-components structure of the Hyperlink web
// crawls (Table 2: Hyperlink2012 has 144M components but one massive one).
// isolatedFrac of the n vertices receive no edges.
func WebLike(scale int, m int, isolatedFrac float64, seed uint64) *Graph {
	n := 1 << scale
	live := n - int(float64(n)*isolatedFrac)
	if live < 2 {
		live = 2
	}
	edges := RMATEdges(scale, m, 0.57, 0.19, 0.19, seed)
	// Remap endpoints into the live prefix so the suffix stays isolated.
	for i := range edges {
		edges[i].U %= Vertex(live)
		edges[i].V %= Vertex(live)
	}
	return Build(n, edges)
}
