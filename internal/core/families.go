package core

import (
	"fmt"
	"sort"

	"connectit/internal/graph"
	"connectit/internal/labelprop"
	"connectit/internal/liutarjan"
	"connectit/internal/parallel"
	"connectit/internal/shiloachvishkin"
	"connectit/internal/unionfind"
)

// This file registers the five finish families of §3.3 with the registry.
// Registration order fixes the enumeration order of Algorithms: the 36
// union-find variants, Shiloach-Vishkin, the sixteen Liu-Tarjan variants,
// Stergiou, and Label-Propagation.
//
// Every family contributes one finish hook over graph.Rep, so the same
// compiled hook runs on flat CSR, byte-compressed, or any other
// representation — the compressed paths decode neighbors straight off the
// encoding, one NeighborsInto call per adjacency list.

// liutarjanByCode indexes the paper's sixteen Liu-Tarjan variants by their
// four-letter code.
var liutarjanByCode = func() map[string]liutarjan.Variant {
	m := make(map[string]liutarjan.Variant, 16)
	for _, v := range liutarjan.Variants() {
		m[v.Code()] = v
	}
	return m
}()

func liutarjanCodes() string {
	s := ""
	for i, v := range liutarjan.Variants() {
		if i > 0 {
			s += "/"
		}
		s += v.Code()
	}
	return s
}

func init() {
	RegisterFamily(&Family{
		Kind:    FinishUnionFind,
		Name:    "uf",
		Aliases: []string{"union-find"},
		Doc:     "concurrent union-find variants (§3.3.1)",
		Enumerate: func() []Algorithm {
			var out []Algorithm
			for _, v := range unionfind.Variants() {
				out = append(out, Algorithm{Kind: FinishUnionFind, UF: v})
			}
			return out
		},
		ParseParams: parseUFParams,
		Validate: func(a Algorithm) error {
			if err := unionfind.Validate(a.UF.Options()); err != nil {
				return fmt.Errorf("%w: %w", ErrUnsupported, err)
			}
			return nil
		},
		ForestSupport: func(a Algorithm) error {
			if ufIsRem(a.UF) && a.UF.Splice == unionfind.SpliceAtomic {
				return fmt.Errorf("%w: spanning forest with Rem+SpliceAtomic", ErrUnsupported)
			}
			return nil
		},
		StreamSupport: func(a Algorithm) (StreamType, error) {
			// Rem + SpliceAtomic is only phase-concurrent (Theorem 3); every
			// other union-find variant runs updates and queries fully
			// concurrently.
			if ufIsRem(a.UF) && a.UF.Splice == unionfind.SpliceAtomic {
				return TypePhased, nil
			}
			return TypeAsync, nil
		},
		NewFinish: newUFFinish,
		NewForest: newUFForest,
		NewStream: func(s *Stream, cfg Config) {
			// Type (i) logs every union's witness edge; the Type (iii)
			// combination cannot (Validate rejects it with a log).
			opt := ufOptions(cfg)
			opt.WitnessLog = s.stype == TypeAsync
			s.dsu = unionfind.MustNew(s.n, opt)
		},
	})

	RegisterFamily(&Family{
		Kind:    FinishShiloachVishkin,
		Name:    "sv",
		Aliases: []string{"shiloach-vishkin"},
		Doc:     "Shiloach-Vishkin hook-and-compress (Algorithm 15)",
		Enumerate: func() []Algorithm {
			return []Algorithm{{Kind: FinishShiloachVishkin}}
		},
		ParseParams:   noParams(FinishShiloachVishkin),
		Validate:      func(Algorithm) error { return nil },
		ForestSupport: func(Algorithm) error { return nil },
		StreamSupport: func(Algorithm) (StreamType, error) { return TypeSynchronous, nil },
		NewFinish:     newSVFinish,
		NewForest: func(Config) ForestFunc {
			r := shiloachvishkin.NewEdgeForestRunner(0)
			return func(g graph.Rep, labels []uint32, skip []bool, acc []graph.Edge) []graph.Edge {
				_, acc = r.Run(liutarjan.CollectEdges(g, skip), labels, acc)
				return acc
			}
		},
		NewStream: func(s *Stream, _ Config) {
			s.parent, s.svForest = Identity(s.n), shiloachvishkin.NewEdgeForestRunner(s.n)
		},
	})

	RegisterFamily(&Family{
		Kind:    FinishLiuTarjan,
		Name:    "lt",
		Aliases: []string{"liu-tarjan"},
		Doc:     "Liu-Tarjan framework variants (§3.3.2, Appendix D)",
		Enumerate: func() []Algorithm {
			var out []Algorithm
			for _, v := range liutarjan.Variants() {
				out = append(out, Algorithm{Kind: FinishLiuTarjan, LT: v})
			}
			return out
		},
		ParseParams: parseLTParams,
		Validate: func(a Algorithm) error {
			if _, ok := liutarjanByCode[a.LT.Code()]; !ok {
				return fmt.Errorf("%w: Liu-Tarjan variant %q is not one of the paper's sixteen (%s)",
					ErrUnsupported, a.LT.Code(), liutarjanCodes())
			}
			return nil
		},
		ForestSupport: func(a Algorithm) error {
			if !a.LT.RootBased() {
				return fmt.Errorf("%w: spanning forest with non-RootUp Liu-Tarjan variant %s", ErrUnsupported, a.LT.Code())
			}
			return nil
		},
		StreamSupport: func(a Algorithm) (StreamType, error) {
			if !a.LT.RootBased() {
				return 0, fmt.Errorf("%w: streaming with non-RootUp Liu-Tarjan variant %s", ErrUnsupported, a.LT.Code())
			}
			return TypeSynchronous, nil
		},
		NewFinish: newLTFinish,
		NewForest: func(cfg Config) ForestFunc {
			r := newLTForestRunner(cfg.Algorithm.LT)
			return func(g graph.Rep, labels []uint32, skip []bool, acc []graph.Edge) []graph.Edge {
				_, acc = r.Run(liutarjan.CollectEdges(g, skip), labels, skip, acc)
				return acc
			}
		},
		NewStream: func(s *Stream, cfg Config) {
			s.parent, s.ltForest = Identity(s.n), newLTForestRunner(cfg.Algorithm.LT)
		},
	})

	RegisterFamily(&Family{
		Kind:          FinishStergiou,
		Name:          "stergiou",
		Doc:           "Stergiou et al.'s two-array min-label algorithm (§B.2.5)",
		Enumerate:     func() []Algorithm { return []Algorithm{{Kind: FinishStergiou}} },
		ParseParams:   noParams(FinishStergiou),
		Validate:      func(Algorithm) error { return nil },
		ForestSupport: unsupportedForest(FinishStergiou),
		StreamSupport: unsupportedStream(FinishStergiou),
		NewFinish:     newStergiouFinish,
	})

	RegisterFamily(&Family{
		Kind:          FinishLabelProp,
		Name:          "lp",
		Aliases:       []string{"label-propagation", "label-prop", "labelprop"},
		Doc:           "folklore frontier-based label propagation (§B.2.6)",
		Enumerate:     func() []Algorithm { return []Algorithm{{Kind: FinishLabelProp}} },
		ParseParams:   noParams(FinishLabelProp),
		Validate:      func(Algorithm) error { return nil },
		ForestSupport: unsupportedForest(FinishLabelProp),
		StreamSupport: unsupportedStream(FinishLabelProp),
		NewFinish:     newLPFinish,
	})
}

func unsupportedForest(kind FinishKind) func(Algorithm) error {
	return func(Algorithm) error {
		return fmt.Errorf("%w: spanning forest with %v", ErrUnsupported, kind)
	}
}

func unsupportedStream(kind FinishKind) func(Algorithm) (StreamType, error) {
	return func(Algorithm) (StreamType, error) {
		// Updates relabel non-roots, breaking wait-free root queries (§3.5).
		return 0, fmt.Errorf("%w: streaming with %v", ErrUnsupported, kind)
	}
}

func ufIsRem(v unionfind.Variant) bool {
	return v.Union == unionfind.UnionRemCAS || v.Union == unionfind.UnionRemLock
}

// ufOptions derives the DSU options for a union-find configuration.
func ufOptions(cfg Config) unionfind.Options {
	opt := cfg.Algorithm.UF.Options()
	opt.Stats = cfg.Stats
	opt.Seed = cfg.Seed
	return opt
}

// newSVFinish compiles the Shiloach-Vishkin finish hook.
func newSVFinish(Config) FinishFunc {
	return func(g graph.Rep, labels []uint32, skip []bool, _ *[]uint32) []uint32 {
		shiloachvishkin.Run(g, labels, skip)
		return labels
	}
}

// newLTFinish compiles a Liu-Tarjan finish hook. The hook retains one
// EdgeRunner, so repeated solver runs reuse the round closures, the
// next-array, and the alter double-buffers instead of re-allocating them
// per run.
func newLTFinish(cfg Config) FinishFunc {
	er := liutarjan.NewEdgeRunner(cfg.Algorithm.LT)
	return func(g graph.Rep, labels []uint32, skip []bool, _ *[]uint32) []uint32 {
		er.Run(liutarjan.CollectEdges(g, skip), labels, skip)
		return labels
	}
}

// newLTForestRunner builds the witness-capturing runner that both the LT
// forest hook and the Type (ii) stream retain. ForestSupport and
// StreamSupport admit only RootUp variants, so the error is unreachable.
func newLTForestRunner(v liutarjan.Variant) *liutarjan.ForestEdgeRunner {
	r, err := liutarjan.NewForestEdgeRunner(v)
	if err != nil {
		panic(err)
	}
	return r
}

// newStergiouFinish compiles the Stergiou finish hook.
func newStergiouFinish(Config) FinishFunc {
	return func(g graph.Rep, labels []uint32, skip []bool, _ *[]uint32) []uint32 {
		liutarjan.RunStergiou(g, labels, skip)
		return labels
	}
}

// newLPFinish compiles the Label-Propagation finish hook.
func newLPFinish(Config) FinishFunc {
	return func(g graph.Rep, labels []uint32, skip []bool, _ *[]uint32) []uint32 {
		labelprop.Run(g, labels, skip)
		return labels
	}
}

// newUFFinish compiles the union-find finish hook. The hook retains one
// DSU and Resets it each run, so repeated runs on same-sized graphs —
// whatever their representation — reuse the auxiliary allocations (hooks,
// locks, priorities) instead of paying New every time. A sampled run's
// forest is its fresh result and nearly flat, so it is flattened in place;
// an unsampled run's forest is instance scratch and deep, so its roots are
// read into out, the instance's second buffer (DESIGN.md §3.1). Per
// FinishFunc's contract a non-nil out also means labels is the identity, so
// the sweep may start with each worker's private id range.
func newUFFinish(cfg Config) FinishFunc {
	d := unionfind.MustNew(0, ufOptions(cfg))
	return func(g graph.Rep, labels []uint32, skip []bool, out *[]uint32) []uint32 {
		d.Reset(labels)
		unionFindFinish(g, d, skip, out != nil)
		if out == nil {
			return d.Labels()
		}
		if cap(*out) < len(labels) {
			*out = make([]uint32, len(labels))
		}
		roots := (*out)[:len(labels)]
		unionfind.RootsInto(roots, labels)
		return roots
	}
}

// newUFForest compiles the union-find witness-recording forest hook. The
// DSU is created lazily on the first forest run and retained for reuse.
func newUFForest(cfg Config) ForestFunc {
	opt := ufOptions(cfg)
	opt.RecordWitness = true
	var df *unionfind.DSU
	return func(g graph.Rep, labels []uint32, skip []bool, acc []graph.Edge) []graph.Edge {
		if df == nil {
			df = unionfind.MustNew(0, opt)
		}
		df.Reset(labels)
		unionFindFinish(g, df, skip, false)
		return df.WitnessEdges(acc)
	}
}

// unionFindFinish applies every edge incident to an unskipped vertex.
//
// The sweep is id-oriented (DESIGN.md §3.1): the symmetric CSR stores each
// undirected edge twice, and each is unioned exactly once, by its lower-id
// endpoint (from = v+1). When the other endpoint is skipped (the sampled
// most-frequent component, whose out-edges are never scanned) the unskipped
// side applies the edge regardless, as the only side that sees it. Orienting
// by degree instead cost two random offsets[] reads per directed edge, more
// than the union it saved. A witness-recording DSU records each applied edge
// as (v, u). The flat CSR is the one special case: DSU.SweepCSR does a whole
// chunk straight off its arrays, and when identity says that d starts from
// the identity forest it runs in two phases (sweepOwnedCSR). Every other
// representation goes through NeighborsInto per vertex, with decode scratch
// per pool worker, reused across its chunks.
func unionFindFinish(g graph.Rep, d *unionfind.DSU, skip []bool, identity bool) {
	n := g.NumVertices()
	const grain = 256
	if csr, ok := g.(*graph.Graph); ok {
		if identity {
			sweepOwnedCSR(csr, d, grain)
			return
		}
		parallel.ForGrained(n, grain, func(lo, hi int) {
			d.SweepCSR(lo, hi, csr.Offsets, csr.Adj, skip)
		})
		return
	}
	bufs := make([][]graph.Vertex, parallel.Width(n, grain))
	parallel.ForWorkerSized(n, grain, len(bufs), func(w *parallel.Worker, lo, hi int) {
		buf := bufs[w.ID()]
		for v := lo; v < hi; v++ {
			if skip != nil && skip[v] {
				continue
			}
			buf = g.NeighborsInto(graph.Vertex(v), buf)
			d.UnionNeighbors(uint32(v), buf, uint32(v)+1, skip)
		}
		bufs[w.ID()] = buf
	})
}

// sweepOwnedCSR is the unsampled CSR sweep of a DSU that starts from the
// identity forest (DESIGN.md §3.1). Phase 1 cuts [0, n) into 4·Procs()
// contiguous id ranges, and one worker per range unions the range's own
// edges with plain stores (DSU.SweepOwned) until a vertex has an edge past
// the range: the identity start keeps every parent in its range, so no
// other worker can look. No edge can stop the last range, so it runs whole
// on every graph; where every other range stops at once (RMAT, whose range
// starts are hubs) it would run alone while the other workers wait, so it
// is cut 4·Procs() times finer. Phase 2 applies every range's tail,
// [stop, hi), with the atomic SweepCSR, in chunks of grain over the tails'
// total length; a chunk may straddle two tails. A DSU that does not take
// the private phase stops each range at its first vertex, and phase 2 is
// then the single sweep.
func sweepOwnedCSR(g *graph.Graph, d *unionfind.DSU, grain int) {
	n := g.NumVertices()
	w := 4 * parallel.Procs()
	cuts := make([]int, 0, 2*w)
	for r := 0; r < w; r++ {
		cuts = append(cuts, r*n/w)
	}
	last := cuts[w-1]
	for k := 1; k <= w; k++ {
		cuts = append(cuts, last+k*(n-last)/w)
	}
	ranges := len(cuts) - 1
	stops := make([]int, ranges)
	parallel.ForGrained(ranges, 1, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			stops[r] = d.SweepOwned(cuts[r], cuts[r+1], g.Offsets, g.Adj)
		}
	})
	// tails[r] is the total length of the tails of ranges below r.
	tails := make([]int, ranges+1)
	for r, stop := range stops {
		tails[r+1] = tails[r] + cuts[r+1] - stop
	}
	parallel.ForGrained(tails[ranges], grain, func(lo, hi int) {
		r := sort.SearchInts(tails, lo+1) - 1
		for lo < hi {
			end := min(hi, tails[r+1])
			v := stops[r] + lo - tails[r]
			d.SweepCSR(v, v+end-lo, g.Offsets, g.Adj, nil)
			lo = end
			r++
		}
	})
}
