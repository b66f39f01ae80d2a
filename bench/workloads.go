package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"connectit"
)

// workload is one benchmark workload. setup makes its inputs from the seed
// (and may be run several times; teardown undoes one setup), measure runs
// the timed phase for about budget and records the workload's metrics, and
// panel hands the layer probes the edges this workload is made of.
type workload struct {
	setup    func() error
	teardown func()
	measure  func(tr *tracer, budget time.Duration, rep *report)
	memMB    func() float64
	panel    func() panelInput
	// layers, when set, adds the layer metrics only this workload can
	// measure (they are printed, not part of BENCHMARK.json).
	layers func(tr *tracer, rep *report)
}

func newWorkload(r run) (*workload, error) {
	switch r.workload {
	case "static_rmat_csr":
		return newStatic(r, true, false, defSpec), nil
	case "static_grid_csr":
		return newStatic(r, false, false, noneSpec), nil
	case "static_rmat_cbin":
		return newStatic(r, true, true, defSpec), nil
	case "stream_mix_90_10":
		return newStream(r), nil
	case "serve_mixed":
		return newServe(r), nil
	}
	return nil, fmt.Errorf("unknown workload %q", r.workload)
}

// runWorkload sets the workload up, measures it, and fills the report.
// With tracing off it reports the end-to-end metrics. With tracing on it
// measures the workload twice at a quarter of the budget each — spans off,
// then spans on — so that the tracing overhead is itself a number, then
// runs the layer panel and writes the span file.
func runWorkload(r run) (*report, error) {
	w, err := newWorkload(r)
	if err != nil {
		return nil, err
	}
	rep := newReport(r.workload)
	reps := r.sz.setupReps
	if r.trace {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s set-up: %w", r.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.teardown()
	budget := time.Duration(r.seconds * float64(time.Second))

	if !r.trace {
		w.measure(newTracer(false), budget, rep)
		rep.roles["setup_s"] = median(setups)
		rep.roles["mem_mb"] = w.memMB()
		return rep, nil
	}

	untraced := newReport(r.workload)
	w.measure(newTracer(false), budget/4, untraced)
	tr := newTracer(true)
	w.measure(tr, budget/4, rep)
	rep.errs = append(rep.errs, untraced.errs...)
	rep.attempted += untraced.attempted
	rep.failed += untraced.failed
	rep.layers["trace.overhead_share"] = rep.roles["op_ms"] / untraced.roles["op_ms"]
	rep.notef("trace.overhead_share = traced/untraced op_ms = %.4g / %.4g ms, a quarter of the budget each",
		rep.roles["op_ms"], untraced.roles["op_ms"])

	runPanel(r, tr, w.panel(), rep)
	if w.layers != nil {
		w.layers(tr, rep)
	}
	rep.layers["bench.build_s"] = buildSeconds()

	spans := tr.all()
	for layer, v := range layerSelfMs(spans) {
		rep.add("trace.self_ms."+layer, v, "ms")
	}
	outDir := filepath.Join(r.root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, r.workload+".trace.json")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rep.notef("%d spans written to %s (%d dropped)", len(spans), path, tr.dropped)
	return rep, nil
}

// buildSeconds is how long run.sh spent in `go build` before starting the
// program; set-up time excludes it.
func buildSeconds() float64 {
	var s float64
	fmt.Sscan(os.Getenv("BENCH_BUILD_S"), &s)
	return s
}

// rng is splitmix64: every generated input — edge order, query pairs,
// marker placement — derives from the run's seed through it.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffledRMATEdges is the streaming workloads' input: the edges of the
// same RMAT graph the static workloads solve, in seeded random order.
func shuffledRMATEdges(sz sizes, seed uint64) (int, []connectit.Edge) {
	g := connectit.NewRMAT(sz.rmatScale, sz.rmatEdges, seed)
	edges := g.Edges()
	r := rng(seed)
	for i := len(edges) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		edges[i], edges[j] = edges[j], edges[i]
	}
	return g.NumVertices(), edges
}

// breakRef corrupts a reference so that a correct program must disagree
// with it: it forgets every edge, leaving each vertex a component of its own.
func breakRef(ref *reference) {
	for v := range ref.root {
		ref.root[v] = uint32(v)
	}
	ref.components = len(ref.root)
}
