package core

import (
	"fmt"
	"strings"

	"connectit/internal/graph"
)

// Family describes one finish-algorithm family (§3.3) in the registry. A
// family contributes a canonical spec-string head, capability probes, a
// parser for its spec parameters, and compiled execution hooks; Compile,
// ParseAlgorithm, Algorithms, and the capability surfaces are all derived
// from these descriptors instead of hand-maintained switches.
type Family struct {
	// Kind is the FinishKind this family implements.
	Kind FinishKind
	// Name is the canonical spec-string head ("uf", "sv", "lt", ...).
	Name string
	// Aliases are additional accepted heads, including the paper-style long
	// names that Algorithm.Name renders (matched case-insensitively).
	Aliases []string
	// Doc is a one-line description for introspection surfaces.
	Doc string

	// Enumerate lists every Algorithm instantiation of the family.
	Enumerate func() []Algorithm
	// ParseParams parses the family-specific spec tokens (lower-cased, the
	// family head already removed) into an Algorithm.
	ParseParams func(tokens []string) (Algorithm, error)
	// Validate reports whether a is a combination the framework defines,
	// returning an error wrapping ErrUnsupported otherwise.
	Validate func(a Algorithm) error
	// ForestSupport returns nil when a supports spanning forest (§3.4).
	ForestSupport func(a Algorithm) error
	// StreamSupport returns a's streaming classification (§3.5), or an
	// error wrapping ErrUnsupported when a cannot run batch-incrementally.
	StreamSupport func(a Algorithm) (StreamType, error)
	// NewFinish compiles the finish hook. Each Compiled owns exactly one,
	// which may retain scratch state across runs and runs on every graph
	// representation.
	NewFinish func(cfg Config) FinishFunc
	// NewForest compiles the spanning-forest hook, which like the finish
	// hook runs on every representation. nil when ForestSupport always
	// fails.
	NewForest func(cfg Config) ForestFunc
	// NewStream sets the connectivity state of s — its DSU, or its parent
	// array and edge runner — for a validated configuration whose
	// StreamSupport succeeded with s.Type().
	NewStream func(s *Stream, cfg Config)
}

// FinishFunc is the compiled finish-phase hook of one algorithm
// instantiation: it refines a star-form labeling (skip semantics per
// DESIGN.md §4) to full connectivity in place and returns the final
// labeling. It reaches the graph only through graph.Rep — one indirect
// NeighborsInto call per adjacency list, a plain slice range per neighbor
// (DESIGN.md §10) — so any representation runs, with no per-backend table.
type FinishFunc func(g graph.Rep, labels []uint32, skip []bool) []uint32

// ForestFunc is the compiled spanning-forest hook: it refines a star-form
// labeling as FinishFunc does, records one witness edge per hook, and
// appends the finish-phase forest edges to acc (Theorem 6). Shiloach-Vishkin
// and Liu-Tarjan run the same witness-capturing edge runner a Type (ii)
// stream applies its batches with; union-find records per-root witnesses
// in its DSU. It is only compiled when ForestSupport returned nil.
type ForestFunc func(g graph.Rep, labels []uint32, skip []bool, acc []graph.Edge) []graph.Edge

var (
	families       []*Family
	familiesByKind = map[FinishKind]*Family{}
	familiesByName = map[string]*Family{}
)

// RegisterFamily adds f to the registry, panicking on duplicate kinds or
// names. Registration order fixes the enumeration order of Algorithms;
// the five paper families register in this package's init.
func RegisterFamily(f *Family) {
	if _, dup := familiesByKind[f.Kind]; dup {
		panic(fmt.Sprintf("core: duplicate family for kind %v", f.Kind))
	}
	familiesByKind[f.Kind] = f
	for _, name := range append([]string{f.Name}, f.Aliases...) {
		key := strings.ToLower(name)
		if _, dup := familiesByName[key]; dup {
			panic(fmt.Sprintf("core: duplicate family name %q", name))
		}
		familiesByName[key] = f
	}
	families = append(families, f)
}

// Algorithms enumerates every finish algorithm in the framework in registry
// order: the 36 union-find variants, Shiloach-Vishkin, the sixteen
// Liu-Tarjan variants, Stergiou, and Label-Propagation (55 in total).
// Crossed with the four sampling modes, these are the paper's several
// hundred connectivity implementations.
func Algorithms() []Algorithm {
	var out []Algorithm
	for _, f := range families {
		out = append(out, f.Enumerate()...)
	}
	return out
}

// StreamingAlgorithm pairs a finish algorithm with its batch-incremental
// classification (§3.5).
type StreamingAlgorithm struct {
	Algorithm Algorithm
	Type      StreamType
}

// StreamingAlgorithms enumerates, in registry order, every finish algorithm
// that supports batch-incremental execution, paired with its stream type.
// The stream tests and benchmarks iterate this to cover all three
// scheduling disciplines.
func StreamingAlgorithms() []StreamingAlgorithm {
	var out []StreamingAlgorithm
	for _, f := range families {
		for _, a := range f.Enumerate() {
			if st, err := f.StreamSupport(a); err == nil {
				out = append(out, StreamingAlgorithm{Algorithm: a, Type: st})
			}
		}
	}
	return out
}
