package graph

// Rep is the pluggable graph-representation abstraction: the contract every
// backend (flat CSR, byte-compressed CSR, and any user-defined
// representation) satisfies, and the type every algorithm kernel takes. It
// holds exactly the four methods the library reads: the sizes, a degree,
// and a whole adjacency list. Reporting methods (NumEdges, SizeBytes) and
// positional decoders (CompressedGraph.NeighborAt) live on the backends
// that have them, and the kernels that want them type-assert.
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

// SizeBytes returns the resident size of the CSR arrays in bytes.
func (g *Graph) SizeBytes() int {
	return 8*len(g.Offsets) + 4*len(g.Adj)
}
