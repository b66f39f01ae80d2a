// Package core implements the ConnectIt framework proper: the two-phase
// connectivity meta-algorithm (Algorithm 1) composing a sampling phase with
// a finish phase, the spanning forest extension (Algorithm 2), and the
// batch-incremental streaming extension (Algorithm 3).
package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"connectit/internal/graph"
	"connectit/internal/liutarjan"
	"connectit/internal/parallel"
	"connectit/internal/sample"
	"connectit/internal/unionfind"
)

// SamplingMode selects the sampling phase.
type SamplingMode int

// The sampling modes of §3.2 (or none).
const (
	NoSampling SamplingMode = iota
	KOutSampling
	BFSSampling
	LDDSampling
)

func (s SamplingMode) String() string {
	switch s {
	case NoSampling:
		return "none"
	case KOutSampling:
		return "kout"
	case BFSSampling:
		return "bfs"
	case LDDSampling:
		return "ldd"
	}
	return fmt.Sprintf("SamplingMode(%d)", int(s))
}

// FinishKind selects the finish algorithm family.
type FinishKind int

// The finish families of §3.3.
const (
	FinishUnionFind FinishKind = iota
	FinishShiloachVishkin
	FinishLiuTarjan
	FinishStergiou
	FinishLabelProp
)

func (f FinishKind) String() string {
	switch f {
	case FinishUnionFind:
		return "union-find"
	case FinishShiloachVishkin:
		return "shiloach-vishkin"
	case FinishLiuTarjan:
		return "liu-tarjan"
	case FinishStergiou:
		return "stergiou"
	case FinishLabelProp:
		return "label-propagation"
	}
	return fmt.Sprintf("FinishKind(%d)", int(f))
}

// Algorithm identifies one finish algorithm instantiation.
type Algorithm struct {
	Kind FinishKind
	// UF configures the union-find variant when Kind == FinishUnionFind.
	UF unionfind.Variant
	// LT configures the framework variant when Kind == FinishLiuTarjan.
	LT liutarjan.Variant
}

// Name renders the paper's naming for the algorithm.
func (a Algorithm) Name() string {
	switch a.Kind {
	case FinishUnionFind:
		return a.UF.Name()
	case FinishLiuTarjan:
		return "Liu-Tarjan;" + a.LT.Code()
	default:
		return a.Kind.String()
	}
}

// Config selects a complete ConnectIt algorithm: a sampling phase plus a
// finish phase (Figure 1).
type Config struct {
	Sampling SamplingMode

	// K is the k-out parameter (default 2).
	K int
	// KOutStrategy selects the k-out edge-selection variant.
	KOutStrategy sample.KOutVariant
	// BFSTries is the number of BFS sampling attempts (default 3).
	BFSTries int
	// Beta is the LDD parameter (default 0.2).
	Beta float64
	// LDDPermute randomizes the LDD start-time order.
	LDDPermute bool

	Algorithm Algorithm

	// Seed drives all randomized choices; fixed seeds give reproducible
	// runs.
	Seed uint64
	// Stats receives union-find path-length instrumentation when non-nil.
	Stats *unionfind.Stats
}

// ErrUnsupported reports a framework combination the paper excludes.
var ErrUnsupported = errors.New("connectit: unsupported combination")

// Identity returns the identity labeling for n vertices.
func Identity(n int) []uint32 {
	labels := make([]uint32, n)
	parallel.Iota(labels)
	return labels
}

// runSampling executes the configured sampling phase over any graph
// representation and returns the star labeling plus (optionally) the
// partial spanning forest.
func runSampling(g graph.Rep, cfg Config, forest bool) *sample.Result {
	switch cfg.Sampling {
	case KOutSampling:
		k := cfg.K
		if k == 0 {
			k = 2
		}
		return sample.KOut(g, k, cfg.KOutStrategy, cfg.Seed, forest)
	case BFSSampling:
		tries := cfg.BFSTries
		if tries == 0 {
			tries = 3
		}
		return sample.BFS(g, tries, cfg.Seed, forest)
	case LDDSampling:
		beta := cfg.Beta
		if beta == 0 {
			beta = 0.2
		}
		return sample.LDD(g, beta, cfg.LDDPermute, cfg.Seed, forest)
	default:
		return &sample.Result{Labels: Identity(g.NumVertices())}
	}
}

// Connectivity runs the ConnectIt connectivity meta-algorithm (Algorithm 1)
// and returns a connectivity labeling: labels[u] == labels[v] iff u and v
// are connected. It is a convenience wrapper that compiles cfg and runs it
// once; repeated runs should Compile once and call Components.
func Connectivity(g *graph.Graph, cfg Config) ([]uint32, error) {
	c, err := Compile(cfg)
	if err != nil {
		return nil, err
	}
	return c.Components(g), nil
}

// MapEdges performs one parallel pass over every directed edge, returning a
// per-vertex reduction of f — the paper's MAPEDGES baseline primitive
// (Table 8), the cost of reading the graph. Run over a compressed
// representation it doubles as the decode-throughput probe.
func MapEdges(g graph.Rep) []uint32 {
	n := g.NumVertices()
	out := make([]uint32, n)
	parallel.ForGrained(n, 256, func(lo, hi int) {
		var buf []graph.Vertex
		for v := lo; v < hi; v++ {
			var s uint32
			buf = g.NeighborsInto(graph.Vertex(v), buf)
			for range buf {
				s++
			}
			out[v] = s
		}
	})
	return out
}

// GatherEdges performs one parallel pass over every directed edge with an
// indirect read through the neighbor into data — the paper's GATHEREDGES
// lower-bound primitive (Table 8): every correct connectivity algorithm
// performs at least this access pattern.
func GatherEdges(g graph.Rep, data []uint32) []uint32 {
	n := g.NumVertices()
	out := make([]uint32, n)
	parallel.ForGrained(n, 256, func(lo, hi int) {
		var buf []graph.Vertex
		for v := lo; v < hi; v++ {
			var s uint32
			buf = g.NeighborsInto(graph.Vertex(v), buf)
			for _, u := range buf {
				s += atomic.LoadUint32(&data[u])
			}
			out[v] = s
		}
	})
	return out
}
