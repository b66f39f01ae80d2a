package connectit

import (
	"fmt"

	"connectit/internal/core"
)

// Solver is a compiled ConnectIt algorithm. Compile validates the
// sampling × finish combination once — every ErrUnsupported case surfaces
// at compilation, never mid-run — precomputes the finish-phase dispatch,
// and retains scratch buffers (labels, skip flags, union-find auxiliary
// arrays), so repeated runs over same-sized graphs stay allocation-free on
// the finish hot path.
//
// A Solver is not safe for concurrent use: it owns scratch state. Compile
// one Solver per goroutine; compilation is cheap.
type Solver struct {
	c *core.Compiled
}

// Compile validates cfg against the algorithm registry and returns a
// reusable Solver.
func Compile(cfg Config) (*Solver, error) {
	c, err := core.Compile(cfg)
	if err != nil {
		return nil, err
	}
	return &Solver{c: c}, nil
}

// MustCompile is Compile for known-valid configurations; it panics on
// error. Intended for initializing package-level solvers from constant
// specs.
func MustCompile(cfg Config) *Solver {
	s, err := Compile(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the configuration the Solver was compiled from.
func (s *Solver) Config() Config { return s.c.Config() }

// Name returns the canonical spec string of the compiled combination
// (e.g. "kout;Union-Rem-CAS;SplitOne;FindNaive"); ParseConfig round-trips
// it.
func (s *Solver) Name() string { return s.c.Name() }

// Capabilities reports what the compiled combination supports beyond
// static connectivity, derived from the algorithm registry.
func (s *Solver) Capabilities() Capabilities { return s.c.Capabilities() }

// ComponentsOn computes the connected components of g: the returned
// labeling satisfies labels[u] == labels[v] iff u and v are connected. g
// is whichever representation was built or loaded — a *Graph, a
// *CompressedGraph (-format in the CLI, or a LoadCBIN-mapped file), or any
// other GraphRep implementation. The kernels reach g only through the
// interface (one NeighborsInto call per adjacency list, DESIGN.md §10), so
// there is no per-representation dispatch, and all validation happened at
// Compile time: the only rejected input is a nil GraphRep, which returns
// ErrUnsupported.
//
// In the NoSampling configuration the returned slice is scratch owned by
// the Solver and is overwritten by the next run; copy it if it must
// outlive the next call. Sampled configurations return a fresh slice.
func (s *Solver) ComponentsOn(g GraphRep) ([]uint32, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: nil graph representation", ErrUnsupported)
	}
	return s.c.Components(g), nil
}

// Components is ComponentsOn for a *Graph.
//
// Deprecated: use ComponentsOn, which takes any GraphRep, or Solver.Query
// for a handle answering counting, histogram, and path queries (DESIGN.md
// §12). This shim remains only because bench/layers.go — frozen by the
// benchmark contract — is its last caller outside the tests.
func (s *Solver) Components(g *Graph) []uint32 { return s.c.Components(g) }

// SpanningForest computes a spanning forest of g, whichever GraphRep it is:
// the witness edges are real graph edges on every representation. For
// combinations the paper excludes (Rem+SpliceAtomic union-find, non-RootUp
// Liu-Tarjan, Stergiou, Label-Propagation) it returns the ErrUnsupported
// error captured at compile time; Capabilities reports support up front. A
// nil GraphRep also returns ErrUnsupported.
func (s *Solver) SpanningForest(g GraphRep) ([]Edge, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: nil graph representation", ErrUnsupported)
	}
	return s.c.SpanningForest(g)
}

// NewIncremental creates a streaming connectivity structure over n
// initially isolated vertices (§3.5) running the compiled finish
// algorithm. Combinations that cannot stream return the ErrUnsupported
// error captured at compile time. Unlike the Solver itself, the returned
// Incremental is safe for the concurrent use its StreamType permits.
func (s *Solver) NewIncremental(n int) (*Incremental, error) {
	return s.c.NewIncremental(n)
}
