// Package graph provides the graph substrate for ConnectIt: the compressed
// sparse row (CSR) and coordinate (COO) formats from §2 of the paper, a
// parallel builder that symmetrizes, sorts, and deduplicates edge lists, a
// byte-compressed CSR variant mirroring Ligra+ difference coding (§3.6), and
// the synthetic generators used by the evaluation (RMAT, Barabási–Albert,
// Erdős–Rényi, grids, and fixture graphs).
package graph

import (
	"fmt"

	"connectit/internal/parallel"
)

// Vertex identifies a vertex. Vertices are indexed from 0 to n-1.
type Vertex = uint32

// None is the sentinel "no vertex" value.
const None Vertex = ^Vertex(0)

// Edge is an undirected edge in COO (coordinate / edge list) format.
type Edge struct {
	U, V Vertex
}

// Graph is an undirected graph in CSR format. The incident edges of vertex v
// are Adj[Offsets[v]:Offsets[v+1]]. Graphs built with Build are symmetric:
// each undirected edge {u,v} appears both as (u,v) and (v,u).
type Graph struct {
	Offsets []uint64 // len n+1
	Adj     []Vertex // len 2m for a symmetrized graph
}

// NumVertices returns the number of vertices n.
func (g *Graph) NumVertices() int { return len(g.Offsets) - 1 }

// NumDirectedEdges returns the number of directed edges stored (2m for a
// symmetrized graph).
func (g *Graph) NumDirectedEdges() int { return len(g.Adj) }

// NumEdges returns the number of undirected edges m.
func (g *Graph) NumEdges() int { return len(g.Adj) / 2 }

// Degree returns the degree of v.
func (g *Graph) Degree(v Vertex) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns the adjacency list of v. The returned slice aliases the
// graph's storage and must not be modified.
func (g *Graph) Neighbors(v Vertex) []Vertex {
	return g.Adj[g.Offsets[v]:g.Offsets[v+1]]
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.NumVertices(), g.NumEdges())
}

// Edges materializes the undirected edge list (u < v once per edge) in COO
// format. It is used by the streaming experiments, which ingest graphs as
// COO batches (§4.4). The order is that of one sweep over the vertices and
// their lists; it is built in two parallel passes over chunks of vertices,
// one counting each chunk's edges and one filling them in after a scan.
func (g *Graph) Edges() []Edge {
	const grain = 2048
	n := max(g.NumVertices(), 0)
	chunks := (n + grain - 1) / grain
	starts := make([]uint64, chunks)
	parallel.ForGrained(chunks, 1, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			var k uint64
			for u := c * grain; u < min((c+1)*grain, n); u++ {
				for _, v := range g.Neighbors(Vertex(u)) {
					if Vertex(u) < v {
						k++
					}
				}
			}
			starts[c] = k
		}
	})
	out := make([]Edge, parallel.ScanExclusive(starts))
	parallel.ForGrained(chunks, 1, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			i := starts[c]
			for u := c * grain; u < min((c+1)*grain, n); u++ {
				for _, v := range g.Neighbors(Vertex(u)) {
					if Vertex(u) < v {
						out[i] = Edge{Vertex(u), v}
						i++
					}
				}
			}
		}
	})
	return out
}
