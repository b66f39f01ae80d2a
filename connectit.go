// Package connectit is a Go implementation of the ConnectIt framework for
// static and incremental parallel graph connectivity (Dhulipala, Hong, Shun;
// VLDB 2020).
//
// ConnectIt composes a sampling phase (k-out, BFS, or LDD sampling) with a
// finish phase drawn from a large family of min-based concurrent
// connectivity algorithms — 36 union-find variants, Shiloach-Vishkin, the
// sixteen Liu-Tarjan framework algorithms, Stergiou's algorithm, and
// Label-Propagation — yielding several hundred distinct parallel
// connectivity algorithms, most of which extend to spanning forest and to
// batch-incremental (streaming) connectivity.
//
// # Quick start
//
// Compile a configuration once, then run it as many times as needed; the
// compiled Solver validates the combination up front and reuses its
// internal scratch across runs:
//
//	g := connectit.BuildGraph(5, []connectit.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}})
//	solver, err := connectit.Compile(connectit.DefaultConfig())
//	if err != nil { ... }
//	labels, err := solver.ComponentsOn(g)
//	// labels[0] == labels[2], labels[3] == labels[4], labels[0] != labels[3]
//
// Richer questions — component counts, sizes, histograms, and actual paths
// through a spanning forest — go through one composable Query handle, from
// a Solver (static) or a Stream (live, over the forest the stream grows as
// updates arrive):
//
//	q, err := solver.Query(g)                  // static: forest-backed
//	n, _ := q.NumComponents()
//	path, ok, _ := q.PathBetween(0, 2)         // forest edges 0 → 2
//
//	st, _ := solver.Stream(n)                  // live: Stream.Query
//	q, err = st.Query()
//
// Any of the framework's several hundred combinations is one canonical
// spec string away:
//
//	cfg, err := connectit.ParseConfig("kout;uf;rem-cas;naive;split-one")
//	alg, err := connectit.ParseAlgorithm("lt;CRFA")
//
// and every algorithm reports its spec with Algorithm.Name (Config.Name for
// the full combination), which parses back to the same algorithm. The
// one-shot helpers Connectivity, SpanningForest, and NewStream remain as
// thin wrappers over Compile for single runs.
//
// # Streaming
//
// A Stream maintains connectivity while edges arrive (§3.5). Its
// ProcessBatch is the paper's batch-incremental call; Update, UpdateBatch
// and Connected serve the same state to concurrent producers and
// queriers, and NewServer puts one behind HTTP and TCP with a write-ahead
// log:
//
//	st, err := solver.Stream(n)
//	answers, err := st.ProcessBatch(edges, [][2]uint32{{0, 2}})
//
// # Graph representations
//
// Graphs are pluggable behind the GraphRep interface, with two first-class
// backends: the flat CSR Graph and the byte-compressed CompressedGraph
// (Ligra+-style difference coding, §3.6 of the paper — roughly half the
// resident bytes on power-law inputs). Every algorithm runs directly on
// either backend; nothing is re-materialized:
//
//	c := connectit.Compress(g)                  // or connectit.LoadCBIN("huge.cbin")
//	labels, err := solver.ComponentsOn(c)       // decode-while-traverse kernels
//
// SaveCBIN/LoadCBIN persist compressed graphs in a versioned binary format
// that loads by memory-mapping: a 200-GB-class graph opens in O(1) and
// pages in on demand.
//
// See DESIGN.md for the registry/Solver architecture and the full system
// inventory; its §6 maps the paper's experiments to cmd/experiments.
package connectit

import (
	"fmt"
	"strings"

	"connectit/internal/core"
	"connectit/internal/graph"
	"connectit/internal/unionfind"
)

// Graph is an undirected graph in compressed sparse row form. Build one
// with BuildGraph or the generators (NewRMAT, NewGrid2D, ...).
type Graph = graph.Graph

// Edge is an undirected edge (COO form).
type Edge = graph.Edge

// Vertex identifies a vertex (0-based).
type Vertex = graph.Vertex

// Config selects a complete ConnectIt algorithm: a sampling strategy plus a
// finish algorithm (Figure 1 of the paper). Compile it into a Solver, or
// pass it to the one-shot helpers.
type Config = core.Config

// Algorithm identifies a finish algorithm instantiation. Its Name method
// renders the canonical spec string, which ParseAlgorithm round-trips.
type Algorithm = core.Algorithm

// Capabilities reports what a compiled combination supports beyond static
// connectivity; it is derived from the algorithm registry.
type Capabilities = core.Capabilities

// StreamType classifies how a streaming algorithm processes a batch (§3.5).
type StreamType = core.StreamType

// The streaming algorithm types of §3.5.
const (
	TypeAsync       = core.TypeAsync
	TypeSynchronous = core.TypeSynchronous
	TypePhased      = core.TypePhased
)

// Stats collects union-find path-length instrumentation (TPL/MPL).
type Stats = unionfind.Stats

// Sampling modes (§3.2 of the paper).
const (
	NoSampling   = core.NoSampling
	KOutSampling = core.KOutSampling
	BFSSampling  = core.BFSSampling
	LDDSampling  = core.LDDSampling
)

// Union-find union rules (§3.3.1).
const (
	UnionAsync   = unionfind.UnionAsync
	UnionHooks   = unionfind.UnionHooks
	UnionEarly   = unionfind.UnionEarly
	UnionRemCAS  = unionfind.UnionRemCAS
	UnionRemLock = unionfind.UnionRemLock
	UnionJTB     = unionfind.UnionJTB
)

// Union-find find rules (Algorithm 8).
const (
	FindNaive       = unionfind.FindNaive
	FindSplit       = unionfind.FindSplit
	FindHalve       = unionfind.FindHalve
	FindCompress    = unionfind.FindCompress
	FindTwoTrySplit = unionfind.FindTwoTrySplit
)

// Rem's algorithm splice rules (Algorithm 9).
const (
	SplitAtomicOne = unionfind.SplitAtomicOne
	HalveAtomicOne = unionfind.HalveAtomicOne
	SpliceAtomic   = unionfind.SpliceAtomic
)

// ErrUnsupported reports a framework combination the paper excludes (e.g.
// Rem + SpliceAtomic + FindCompress, or spanning forest with a
// non-root-based algorithm). Compile surfaces every such case up front.
var ErrUnsupported = core.ErrUnsupported

// ErrBadSpec reports a malformed or unknown spec string passed to
// ParseAlgorithm or ParseConfig.
var ErrBadSpec = core.ErrBadSpec

// DefaultConfig returns the paper's recommended robust configuration:
// k-out sampling (hybrid, k = 2) finished by Union-Rem-CAS with
// SplitAtomicOne and no extra find compression (§4.2 takeaways).
func DefaultConfig() Config { return core.DefaultConfig() }

// ParseAlgorithm parses a canonical algorithm spec string — e.g.
// "uf;rem-cas;naive;split-one", "lt;CRFA", "sv", "stergiou", "lp" — into
// an Algorithm. The output of Algorithm.Name parses back to the same
// algorithm. Malformed specs return ErrBadSpec; combinations the paper
// excludes return ErrUnsupported.
func ParseAlgorithm(spec string) (Algorithm, error) { return core.ParseAlgorithm(spec) }

// MustParseAlgorithm is ParseAlgorithm for known-valid specs; it panics on
// error.
func MustParseAlgorithm(spec string) Algorithm {
	a, err := core.ParseAlgorithm(spec)
	if err != nil {
		panic(err)
	}
	return a
}

// ParseConfig parses a full configuration spec "<sampling>;<algorithm>" —
// e.g. "kout;uf;rem-cas;naive;split-one" — into a Config with default
// tuning parameters. The output of Config.Name parses back to the same
// sampling and algorithm.
func ParseConfig(spec string) (Config, error) { return core.ParseConfig(spec) }

// UnionFindAlgorithm selects a union-find finish algorithm.
func UnionFindAlgorithm(u unionfind.UnionOption, f unionfind.FindOption, s unionfind.SpliceOption) Algorithm {
	return Algorithm{
		Kind: core.FinishUnionFind,
		UF:   unionfind.Variant{Union: u, Find: f, Splice: s},
	}
}

// ShiloachVishkinAlgorithm selects the Shiloach-Vishkin finish algorithm.
func ShiloachVishkinAlgorithm() Algorithm {
	return Algorithm{Kind: core.FinishShiloachVishkin}
}

// LiuTarjanAlgorithm selects a Liu-Tarjan framework variant by its
// four-letter code (e.g. "CRFA", "PUS"); see liutarjan variant naming in
// the paper's Appendix D. Unknown codes return an error wrapping
// ErrUnsupported that lists the valid codes.
func LiuTarjanAlgorithm(code string) (Algorithm, error) {
	if strings.TrimSpace(code) == "" || strings.ContainsRune(code, ';') {
		return Algorithm{}, fmt.Errorf("%w: unknown Liu-Tarjan variant %q", ErrUnsupported, code)
	}
	return core.ParseAlgorithm("lt;" + code)
}

// StergiouAlgorithm selects Stergiou et al.'s algorithm.
func StergiouAlgorithm() Algorithm {
	return Algorithm{Kind: core.FinishStergiou}
}

// LabelPropagationAlgorithm selects the folklore Label-Propagation
// algorithm.
func LabelPropagationAlgorithm() Algorithm {
	return Algorithm{Kind: core.FinishLabelProp}
}

// Algorithms enumerates every finish algorithm in the framework, derived
// from the registry: the 36 union-find variants, Shiloach-Vishkin, the 16
// Liu-Tarjan variants, Stergiou, and Label-Propagation. Crossed with the
// four sampling modes, these are the paper's several hundred connectivity
// implementations. Every returned Algorithm's Name parses back via
// ParseAlgorithm.
func Algorithms() []Algorithm { return core.Algorithms() }

// Connectivity computes the connected components of g: the returned
// labeling satisfies labels[u] == labels[v] iff u and v are connected. It
// is a thin wrapper that compiles cfg and runs it once; repeated runs
// should Compile once and call Solver.ComponentsOn.
func Connectivity(g *Graph, cfg Config) ([]uint32, error) {
	s, err := Compile(cfg)
	if err != nil {
		return nil, err
	}
	return s.ComponentsOn(g)
}

// SpanningForest computes a spanning forest of g using a root-based finish
// algorithm (any union-find variant except Rem+SpliceAtomic,
// Shiloach-Vishkin, or a RootUp Liu-Tarjan variant) on any GraphRep. It is
// a thin wrapper over Compile + Solver.SpanningForest.
func SpanningForest(g GraphRep, cfg Config) ([]Edge, error) {
	s, err := Compile(cfg)
	if err != nil {
		return nil, err
	}
	return s.SpanningForest(g)
}
