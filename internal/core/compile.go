package core

import (
	"fmt"

	"connectit/internal/graph"
	"connectit/internal/parallel"
	"connectit/internal/sample"
)

// Capabilities reports what a compiled configuration supports beyond static
// connectivity. It is derived from the family registry, not hand-maintained.
type Capabilities struct {
	// SpanningForest reports support for Algorithm 2 (§3.4).
	SpanningForest bool
	// Streaming reports support for batch-incremental execution (§3.5).
	Streaming bool
	// StreamType is the batch classification when Streaming is true.
	StreamType StreamType
	// WaitFreeQueries reports that connectivity queries never block on
	// concurrent updates: true for Type (i) and (ii) streams, false for
	// Type (iii), whose queries are phase-separated from updates by a
	// barrier (Theorem 3).
	WaitFreeQueries bool
}

// Compiled is a compiled ConnectIt algorithm instance: Compile validates
// the sampling × finish combination once, precomputes the dispatch closures
// that the free functions previously re-derived on every call, and retains
// scratch buffers (labels, skip flags, union-find auxiliary arrays) so
// repeated runs over same-sized graphs avoid re-allocation on the finish
// hot path. It is the engine behind the public connectit.Solver.
//
// A Compiled carries one finish hook and at most one forest hook, both over
// graph.Rep, so the same instance — and the same retained scratch — runs
// directly on whichever representation was built or loaded: flat CSR,
// byte-compressed, or any other graph.Rep.
//
// A Compiled is not safe for concurrent use — it owns scratch state.
// Compile one instance per goroutine; compilation is cheap.
type Compiled struct {
	cfg    Config
	family *Family
	finish FinishFunc
	forest ForestFunc

	forestErr  error
	streamType StreamType
	streamErr  error

	labels []uint32 // identity-labeling scratch for the NoSampling path
	skip   []bool   // most-frequent-component skip-flag scratch
}

// Compile validates cfg against the registry and returns an executable
// instance. Every ErrUnsupported case surfaces at compile time: invalid
// combinations fail here, and the forest/streaming restrictions are
// captured once and returned unchanged by SpanningForest/NewStream
// instead of being re-derived mid-run.
func Compile(cfg Config) (*Compiled, error) {
	f, ok := familiesByKind[cfg.Algorithm.Kind]
	if !ok {
		return nil, fmt.Errorf("%w: unknown finish kind %v", ErrUnsupported, cfg.Algorithm.Kind)
	}
	if err := f.Validate(cfg.Algorithm); err != nil {
		return nil, err
	}
	c := &Compiled{cfg: cfg, family: f}
	c.forestErr = f.ForestSupport(cfg.Algorithm)
	c.streamType, c.streamErr = f.StreamSupport(cfg.Algorithm)
	c.finish = f.NewFinish(cfg)
	if c.forestErr == nil && f.NewForest != nil {
		c.forest = f.NewForest(cfg)
	}
	return c, nil
}

// Config returns the configuration the instance was compiled from.
func (c *Compiled) Config() Config { return c.cfg }

// Name returns the canonical spec string of the compiled combination;
// ParseConfig round-trips it.
func (c *Compiled) Name() string { return c.cfg.Name() }

// ForestErr returns nil when the combination supports spanning forest, or
// the ErrUnsupported verdict captured at compile time. It is the error
// SpanningForest would return, exposed so capability-gated surfaces (the
// query layer) can fail at construction.
func (c *Compiled) ForestErr() error { return c.forestErr }

// Capabilities reports what the compiled combination supports.
func (c *Compiled) Capabilities() Capabilities {
	return Capabilities{
		SpanningForest:  c.forestErr == nil,
		Streaming:       c.streamErr == nil,
		StreamType:      c.streamType,
		WaitFreeQueries: c.streamErr == nil && c.streamType != TypePhased,
	}
}

// prepare runs the sampling phase (phase one of Algorithm 1) over any
// representation and returns the star-form labeling, the skip flags for the
// most frequent sampled component, and — when forest is set — the sampled
// partial forest. The labels (NoSampling) and skip buffers are instance
// scratch.
func (c *Compiled) prepare(g graph.Rep, forest bool) ([]uint32, []bool, []graph.Edge) {
	n := g.NumVertices()
	if c.cfg.Sampling == NoSampling {
		if cap(c.labels) < n {
			c.labels = make([]uint32, n)
		}
		labels := c.labels[:n]
		parallel.Iota(labels)
		return labels, nil, nil
	}
	res := runSampling(g, c.cfg, forest)
	labels := res.Labels
	frequent := sample.MostFrequent(labels, c.cfg.Seed)
	// Canonicalize stars to minimum-rooted form so every finish algorithm's
	// invariants hold (DESIGN.md §4). k-out stars are already canonical.
	if !res.Canonical {
		frequent = sample.Canonicalize(labels, frequent)
	}
	if cap(c.skip) < n {
		c.skip = make([]bool, n)
	}
	skip := c.skip[:n]
	f := frequent
	parallel.ForGrained(n, parallel.DefaultGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			skip[i] = labels[i] == f
		}
	})
	return labels, skip, res.Forest
}

// Components runs the compiled combination over g (Algorithm 1) and
// returns a connectivity labeling: labels[u] == labels[v] iff u and v are
// connected. It cannot fail — all validation happened in Compile. Sampling
// and finish read g only through graph.Rep, so compressed (possibly
// memory-mapped) graphs are decoded in place, never materialized as a flat
// CSR.
//
// In the NoSampling configuration the returned slice is scratch owned by
// the instance and is overwritten by the next run; copy it if it must
// outlive the next call. Sampled configurations return a fresh slice.
func (c *Compiled) Components(g graph.Rep) []uint32 {
	if g.NumVertices() == 0 {
		return nil
	}
	labels, skip, _ := c.prepare(g, false)
	return c.finish(g, labels, skip)
}

// SpanningForest computes a spanning forest of g (Algorithm 2): the
// sampling phase emits the forest edges inducing its partial labeling
// (Definition B.2) and the root-based finish phase records one witness
// edge per hook (Theorem 6). Like Components it reads g only through
// graph.Rep, so every representation yields a forest of real graph edges.
// Combinations the paper excludes return the ErrUnsupported error captured
// at compile time.
func (c *Compiled) SpanningForest(g graph.Rep) ([]graph.Edge, error) {
	if c.forestErr != nil {
		return nil, c.forestErr
	}
	if g.NumVertices() == 0 {
		return nil, nil
	}
	labels, skip, acc := c.prepare(g, true)
	return c.forest(g, labels, skip, acc), nil
}
