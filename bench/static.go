package main

import (
	"os"
	"path/filepath"
	"runtime"
	"time"

	"connectit"
)

// maxSolves caps the timed solves of one run, so that a tiny smoke graph
// does not spin through millions of repetitions.
const maxSolves = 4000

// queryEvery spaces out the query leg of the journey: it costs a third of a
// solve and its garbage would otherwise be collected during later solves.
const queryEvery = 2

// static is the three static workloads: a graph (RMAT or grid), a backend
// (CSR built from the edge list, or a one-segment .cbin file mapped from
// disk) and a compiled solver configuration.
type static struct {
	r    run
	rmat bool
	cbin bool
	spec string

	g     *connectit.Graph
	edges []connectit.Edge
	ref   *reference
	path  string // the .cbin file, when cbin
}

func newStatic(r run, rmat, cbin bool, spec string) *workload {
	s := &static{r: r, rmat: rmat, cbin: cbin, spec: spec}
	return &workload{
		setup:    s.setup,
		teardown: func() { s.g, s.edges, s.ref = nil, nil, nil },
		measure:  s.measure,
		memMB:    func() float64 { return peakRSSMB(os.Getpid()) },
		panel:    func() panelInput { return panelInput{n: s.g.NumVertices(), edges: s.edges} },
		layers:   s.layers,
	}
}

func (s *static) setup() error {
	if s.rmat {
		s.g = connectit.NewRMAT(s.r.sz.rmatScale, s.r.sz.rmatEdges, s.r.seed)
	} else {
		// The grid has no random choice in it: the seed reaches this
		// workload through the solver's seed and the query pairs only.
		s.g = connectit.NewGrid2D(s.r.sz.gridSide, s.r.sz.gridSide)
	}
	s.edges = s.g.Edges()
	s.ref = newReference(s.g.NumVertices(), s.edges)
	if s.r.breakReference {
		breakRef(s.ref)
	}
	if s.cbin {
		s.path = filepath.Join(s.r.tmp, "graph.cbin")
		return connectit.SaveCBIN(s.path, connectit.Compress(s.g))
	}
	return nil
}

// measure times the static journey: input → graph (BuildGraph, or LoadCBIN)
// → Solver → labels → a query engine over the labels and its first answers.
func (s *static) measure(tr *tracer, budget time.Duration, rep *report) {
	deadline := time.Now().Add(budget)
	sz := s.r.sz
	n := s.g.NumVertices()
	solver := connectit.MustCompile(mustConfig(s.spec, s.r.seed))

	var loads, solves, reads []time.Duration
	var rep0 connectit.GraphRep = s.g
	load := func(op int64, parent int) (g connectit.GraphRep, d time.Duration) {
		if s.cbin {
			d = tr.timed("graph.LoadCBIN", parent, op, func() {
				var err error
				if g, err = connectit.LoadCBIN(s.path); err != nil {
					rep.errorf("LoadCBIN: %v", err)
				}
			})
		} else {
			d = tr.timed("graph.BuildGraph", parent, op, func() { g = connectit.BuildGraph(n, s.edges) })
		}
		return g, d
	}
	if !s.cbin {
		// Building the CSR costs ten solves, so it is timed a few times up
		// front and the solves then share the last build.
		for i := 0; i < sz.buildReps; i++ {
			var d time.Duration
			rep0, d = load(int64(-1-i), -1)
			loads = append(loads, d)
		}
	}

	pairs := rng(s.r.seed ^ 0x5eed)
	var last []uint32
	for i := -sz.warmSolves; i < maxSolves && (i < sz.minSolves || time.Now().Before(deadline)); i++ {
		op := int64(i)
		root := tr.start("bench.solve_op", -1, op)
		g := rep0
		if s.cbin {
			// The .cbin journey maps the file afresh for every solve, as a
			// process that opens the file and solves once would.
			var d time.Duration
			if g, d = load(op, root); g == nil {
				tr.end(root)
				return
			}
			if i >= 0 {
				loads = append(loads, d)
			}
		}
		var labels []uint32
		d := tr.timed("core.Components", root, op, func() {
			var err error
			if labels, err = solver.ComponentsOn(g); err != nil {
				rep.errorf("ComponentsOn: %v", err)
			}
		})
		// The journey's last leg — labels into a query engine, first
		// answers out — runs on every queryEvery-th solve. It allocates
		// three vertex-sized arrays, so the collector runs right after it,
		// untimed, and never in the middle of a later solve.
		queried := i >= 0 && i%queryEvery == 0
		if queried {
			u, v := uint32(pairs.intn(n)), uint32(pairs.intn(n))
			var comps int
			var conn bool
			reads = append(reads, tr.timed("query.QueryLabels", root, op, func() {
				q := connectit.QueryLabels(labels)
				comps, _ = q.NumComponents()
				conn, _ = q.Connected(u, v)
			}))
			rep.attempted++
			if comps != s.ref.components || conn != s.ref.connected(u, v) {
				rep.failed++
				rep.errorf("solve %d: %d components (reference %d), connected(%d,%d)=%v (reference %v)",
					i, comps, s.ref.components, u, v, conn, s.ref.connected(u, v))
			}
		}
		tr.end(root)
		if s.cbin {
			closeRep(g)
		}
		if queried {
			runtime.GC()
		}
		if i < 0 {
			continue
		}
		solves = append(solves, d)
		rep.attempted++
		// Every repetition's component count is checked; solvers return
		// star-form labels, so a component is a vertex labelled with itself.
		comps := 0
		for v, l := range labels {
			if l == uint32(v) {
				comps++
			}
		}
		if comps != s.ref.components {
			rep.failed++
			rep.errorf("solve %d: %d components, reference %d", i, comps, s.ref.components)
		}
		last = labels
	}
	if last != nil {
		// Sampled configurations return a fresh slice per solve and the
		// unsampled one returns scratch that only the next solve overwrites,
		// so the last labeling is intact here.
		if err := s.ref.checkPartition(last); err != nil {
			rep.failed++
			rep.errorf("labels: %v", err)
		}
	}

	sv, ld, rd := sortedCopy(msOf(solves)), sortedCopy(msOf(loads)), sortedCopy(msOf(reads))
	tail := pickTail(len(sv), 90)
	var total time.Duration
	for _, d := range solves {
		total += d
	}
	edgesPerS := float64(len(solves)) * float64(s.g.NumEdges()) / total.Seconds()

	rep.add("load_ms", percentile(ld, 50), "ms")
	rep.add("solve_p10_ms", percentile(sv, 10), "ms")
	rep.add("solve_p50_ms", percentile(sv, 50), "ms")
	rep.add("solve_p90_ms", percentile(sv, tail), "ms")
	rep.add("solve_edges_per_s", edgesPerS, "1/s")
	rep.add("query_p10_ms", percentile(rd, 10), "ms")
	rep.add("query_p50_ms", percentile(rd, 50), "ms")
	rep.notef("%d timed solves after %d warm-up; tail is p%g; %d load samples; %d query samples; %d vertices, %d edges, %d components",
		len(sv), sz.warmSolves, tail, len(ld), len(rd), n, s.g.NumEdges(), s.ref.components)

	// The contract's numbers are the 10th percentiles: what a solve costs
	// when the host leaves it alone. The host's slow phases (see README)
	// move the median by up to 50 % between runs and the p10 by a few.
	rep.roles["op_ms"] = percentile(sv, 10)
	rep.roles["read_ms"] = percentile(rd, 10)
}

// layers adds the sample/finish split of this workload's own solve. It is
// reported where the solve samples on the CSR the panel's k-out probe ran
// on; on the grid nothing is sampled and finish.full_ms is the whole solve.
func (s *static) layers(_ *tracer, rep *report) {
	if s.rmat && !s.cbin {
		rep.add("finish.after_sample_ms", rep.roles["op_ms"]-rep.layers["sample.kout_ms"], "ms")
	}
}
