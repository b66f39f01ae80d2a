package connectit

import (
	"io"

	"connectit/internal/graph"
)

// This file re-exports the graph-representation surface of the library:
// builders, the compressed backend, file IO (edge lists and the .cbin
// binary format), and the synthetic generators used by the paper's
// evaluation.

// GraphRep is the pluggable graph-representation interface: the flat CSR
// Graph and the byte-compressed CompressedGraph both satisfy it, and
// Solver.ComponentsOn runs on whichever representation was built or loaded
// — or on any other implementation. Its four methods are all the library
// reads. It has the method set of internal/graph.Rep, whose doc comment
// holds the iteration contract.
type GraphRep interface {
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

// GraphRep and graph.Rep hold the same methods: each converts to the other.
var (
	_ GraphRep  = graph.Rep(nil)
	_ graph.Rep = GraphRep(nil)
)

// CompressedGraph is the byte-compressed CSR backend (Ligra+'s block-coded
// byte codes): every algorithm runs directly on the encoding via
// the representation layer, at roughly half the resident bytes of the flat
// CSR on power-law graphs. Build one with Compress, or open a .cbin file
// with LoadCBIN.
type CompressedGraph = graph.CompressedGraph

// SegmentedGraph is CompressedGraph.
//
// Deprecated: the 64-bit offset index lifted the 4 GiB cap that segments
// worked around; use CompressedGraph.
type SegmentedGraph = CompressedGraph

// BuildGraph constructs a symmetric CSR graph with n vertices from an
// undirected edge list, dropping self loops and duplicate edges. It panics
// if an endpoint is >= n; TryBuildGraph reports that as an error instead.
func BuildGraph(n int, edges []Edge) *Graph { return graph.Build(n, edges) }

// TryBuildGraph is BuildGraph with endpoint validation reported as an
// error, for edge lists from untrusted sources.
func TryBuildGraph(n int, edges []Edge) (*Graph, error) { return graph.TryBuild(n, edges) }

// Compress byte-encodes g into the compressed backend. It panics if one
// vertex's encoded list would exceed the 4 GiB per-list cap; TryCompress
// reports that as an error instead.
func Compress(g *Graph) *CompressedGraph { return graph.Compress(g) }

// TryCompress is Compress with the per-list cap reported as an error, for
// inputs of unknown size (file conversions).
func TryCompress(g *Graph) (*CompressedGraph, error) { return graph.TryCompress(g) }

// TrySegment returns TryCompress(g); segmentBytes is ignored.
//
// Deprecated: there are no segments any more; use TryCompress.
func TrySegment(g *Graph, segmentBytes uint64) (*SegmentedGraph, error) { return TryCompress(g) }

// LoadEdgeListFile reads a whitespace-separated edge-list file ("u v" per
// line, '#'/'%' comments) and builds a symmetric graph. Malformed input is
// reported as an error carrying the offending line number.
func LoadEdgeListFile(path string) (*Graph, error) { return graph.LoadEdgeListFile(path) }

// SaveCBIN writes c to path in the versioned .cbin binary format (v4), the
// companion of LoadCBIN.
func SaveCBIN(path string, c *CompressedGraph) error { return graph.SaveCBIN(path, c) }

// LoadCBIN memory-maps a .cbin file written by SaveCBIN and returns the
// *CompressedGraph it holds: the encoded adjacency is never copied and
// pages in on demand as it is traversed (only the much smaller offset
// index is scanned for validity), so a file larger than RAM opens in
// O(index) and executes out of core. Files of versions 1 to 3 are refused
// with an error naming the version. Call Close on the result to release
// the mapping.
func LoadCBIN(path string) (GraphRep, error) {
	c, err := graph.LoadCBIN(path)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// ReadEdgeList parses an edge list from r and returns the edges plus the
// implied vertex count.
func ReadEdgeList(r io.Reader) ([]Edge, int, error) { return graph.ReadEdgeList(r) }

// WriteEdgeList writes g's undirected edge list to w.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// NewRMAT generates an RMAT power-law graph with 2^scale vertices and about
// m undirected edges — the analog of the paper's social/web inputs.
func NewRMAT(scale, m int, seed uint64) *Graph {
	return graph.RMAT(scale, m, 0.57, 0.19, 0.19, seed)
}

// RMATEdges generates a raw RMAT edge stream with the paper's streaming
// parameters (a, b, c) = (0.5, 0.1, 0.1) for batch-incremental experiments.
func RMATEdges(scale, m int, seed uint64) []Edge {
	return graph.RMATEdges(scale, m, 0.5, 0.1, 0.1, seed)
}

// NewBarabasiAlbert generates a preferential-attachment graph with n
// vertices and about k·n edges.
func NewBarabasiAlbert(n, k int, seed uint64) *Graph {
	return graph.BarabasiAlbert(n, k, seed)
}

// BarabasiAlbertEdges generates a raw Barabási–Albert edge stream.
func BarabasiAlbertEdges(n, k int, seed uint64) []Edge {
	return graph.BarabasiAlbertEdges(n, k, seed)
}

// NewErdosRenyi generates a uniform random graph with n vertices and m
// edges.
func NewErdosRenyi(n, m int, seed uint64) *Graph { return graph.ErdosRenyi(n, m, seed) }

// NewGrid2D generates a rows×cols mesh: the high-diameter road-network
// analog (road_usa in the paper).
func NewGrid2D(rows, cols int) *Graph { return graph.Grid2D(rows, cols) }

// NewWebLike generates an RMAT-style graph with a fraction of isolated
// vertices, mimicking the component structure of the Hyperlink web crawls.
func NewWebLike(scale, m int, isolatedFrac float64, seed uint64) *Graph {
	return graph.WebLike(scale, m, isolatedFrac, seed)
}
