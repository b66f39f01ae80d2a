package graph

// Rep is the pluggable graph-representation abstraction: the contract every
// backend (flat CSR, byte-compressed CSR, and any user-defined
// representation) satisfies, and the type every algorithm kernel takes.
//
// Kernels take a plain Rep interface value: the per-vertex NeighborsInto
// call is one indirect call per adjacency list, and the per-neighbor inner
// loop is a plain slice range with no dynamic dispatch. A type parameter
// constrained by Rep would compile to the same code — every backend is a
// pointer, Go stencils generics per GC shape, so all of them share one body
// that calls through a dictionary's itab (DESIGN.md §10).
//
// The iteration contract is a neighbor-slice/decoder pair: NeighborsInto
// returns v's sorted adjacency list, reusing buf as decode scratch when the
// representation is not stored flat. The canonical hot-loop shape is
//
//	var buf []graph.Vertex
//	for v := lo; v < hi; v++ {
//		buf = g.NeighborsInto(graph.Vertex(v), buf)
//		for _, u := range buf { ... }
//	}
//
// which is allocation-free in steady state for both backends: CSR ignores
// buf and returns its internal slice; the compressed representation decodes
// into buf and return it (possibly grown), so reassigning keeps the scratch
// alive across iterations.
type Rep interface {
	// NumVertices returns the number of vertices n.
	NumVertices() int
	// NumEdges returns the number of undirected edges m.
	NumEdges() int
	// NumDirectedEdges returns the number of stored directed edges (2m for
	// a symmetrized graph).
	NumDirectedEdges() int
	// Degree returns the degree of v.
	Degree(v Vertex) int
	// NeighborsInto returns v's neighbors in ascending order, valid until
	// the next call that reuses buf. Implementations either return an
	// internal slice (ignoring buf) or decode into buf, growing it as
	// needed.
	NeighborsInto(v Vertex, buf []Vertex) []Vertex
	// NeighborsAt writes the neighbor at position pos[i] of v's ascending
	// list into out[i], for every pos[i] < Degree(v); out must be at least
	// as long as pos, and positions may repeat or come in any order; a
	// position at or past Degree(v) panics. Kernels that read a few
	// positions of a list (k-out sampling) use it: CSR indexes its flat
	// array, and the block-coded backend decodes each position's block only
	// as far as the position.
	NeighborsAt(v Vertex, pos, out []Vertex)
	// SizeBytes returns the resident size of the adjacency structure in
	// bytes (offsets, degree/index arrays, and edge storage), the
	// space-vs-throughput statistic the CLI and benchmarks report.
	SizeBytes() int
}

// Compile-time checks that every first-class backend satisfies Rep.
var (
	_ Rep = (*Graph)(nil)
	_ Rep = (*CompressedGraph)(nil)
)

// NeighborsInto returns the adjacency list of v. The CSR representation
// stores adjacency flat, so buf is ignored and the internal slice is
// returned; it must not be modified.
func (g *Graph) NeighborsInto(v Vertex, buf []Vertex) []Vertex {
	return g.Adj[g.Offsets[v]:g.Offsets[v+1]]
}

// NeighborsAt indexes v's flat adjacency at each position.
func (g *Graph) NeighborsAt(v Vertex, pos, out []Vertex) {
	adj := g.Adj[g.Offsets[v]:g.Offsets[v+1]]
	for i, p := range pos {
		out[i] = adj[p]
	}
}

// SizeBytes returns the resident size of the CSR arrays in bytes.
func (g *Graph) SizeBytes() int {
	return 8*len(g.Offsets) + 4*len(g.Adj)
}
