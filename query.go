package connectit

import (
	"connectit/internal/query"
)

// Query is the composable connectivity query surface (DESIGN.md §12): one
// engine type answering path, component, histogram, and forest queries over
// whatever produced the connectivity — a live Stream's spanning forest
// (Stream.Query), a static forest computed by Algorithm 2 (Solver.Query over
// any GraphRep), or a bare labeling (QueryLabels).
//
// Capability gating happens at construction, mirroring Compile's
// fail-at-compile contract: a handle you hold answers every query its
// backing supports, and the queries a label-backed handle cannot answer
// (PathBetween, SpanningForest) return ErrNoForest — a verdict fixed when
// the handle was built, never discovered mid-query.
//
// A Query is safe for concurrent use.
type Query = query.Engine

// QueryStats is a snapshot of a Query engine's index counters.
type QueryStats = query.Stats

// Bin is one component-size histogram bucket: Count components of exactly
// Size vertices.
type Bin = query.Bin

// Histogram is a component-size histogram in increasing Size order, as
// returned by Query.ComponentHistogram.
type Histogram = query.Histogram

// ErrNoForest is returned by Query.PathBetween and Query.SpanningForest on
// label-backed engines (no spanning forest behind them). Forest-backed
// engines never return it.
var ErrNoForest = query.ErrNoForest

// QueryLabels builds a label-backed Query over a connectivity labeling, as
// returned by Solver.ComponentsOn or Connectivity: labels[v] is v's component
// label in canonical star form (labels[labels[v]] == labels[v]). A label
// outside [0, len(labels)) or a labeling not in star form panics, naming
// the vertex. Component, size, counting, and histogram queries work;
// PathBetween and SpanningForest return ErrNoForest. The labels slice is
// copied. Building counts the components; the component sizes are built
// by the first size, largest-component or histogram query.
func QueryLabels(labels []uint32) *Query {
	return query.NewLabelled(labels)
}

// Query computes connectivity of g with the compiled combination and wraps
// the result in a Query handle — the one-stop surface for counting,
// histogram, and path queries.
//
// The handle's power is fixed at construction by what the combination
// supports, mirroring Compile's capability gating:
//
//   - Combinations without spanning-forest support (Rem+SpliceAtomic
//     union-find, non-RootUp Liu-Tarjan, Stergiou, Label-Propagation)
//     return the ErrUnsupported error captured at compile time — use
//     ComponentsOn + QueryLabels for a label-only view of those.
//   - Every other combination yields a forest-backed handle on any GraphRep
//     (*Graph, *CompressedGraph, or a user-defined representation):
//     every query works, including PathBetween and SpanningForest
//     (Algorithm 2). A nil GraphRep returns ErrUnsupported.
//
// The handle owns a snapshot of the result and stays valid after further
// Solver runs.
func (s *Solver) Query(g GraphRep) (*Query, error) {
	forest, err := s.SpanningForest(g)
	if err != nil {
		return nil, err
	}
	return query.NewStatic(g.NumVertices(), forest), nil
}
