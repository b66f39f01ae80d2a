package main

import (
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"connectit"
)

// The 90/10 mix is issued in slices: sliceUpdates Update calls, then a
// burst of sliceQueries Connected calls on seeded uniform pairs. A slice is
// the unit whose latency is reported — single operations take tens of
// nanoseconds, less than reading the clock twice — and the query burst is
// timed on its own, so that an update gain bought with slower reads shows.
const (
	sliceUpdates = 900
	sliceQueries = 100
	producers    = 2 // nproc of the reference host; never more load goroutines than cores
)

// mixResult is one closed-loop drive of the mix over an edge list.
type mixResult struct {
	wall   time.Duration // first operation to the end of the final Sync
	ops    int64
	slices []time.Duration // whole slices
	bursts []time.Duration // the query burst of each slice
	wrong  int64           // Connected answered true for a pair the reference separates
}

// driveMix replays edges through st from `producers` goroutines, slice k
// going to producer k mod producers, then calls Sync. ref may be nil (no
// answer checking).
func driveMix(st *connectit.Stream, n int, edges []connectit.Edge, seed uint64, ref *reference,
	tr *tracer, parent int, op int64) mixResult {
	nSlices := (len(edges) + sliceUpdates - 1) / sliceUpdates
	perProd := make([]mixResult, producers)
	var wrong atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &perProd[w]
			pairs := rng(seed + uint64(w)*0x9e37)
			sp := tr.start("ingest.Update+Connected", parent, op)
			for k := w; k < nSlices; k += producers {
				lo, hi := k*sliceUpdates, min((k+1)*sliceUpdates, len(edges))
				t0 := time.Now()
				for _, e := range edges[lo:hi] {
					st.Update(e.U, e.V)
				}
				t1 := time.Now()
				q := (hi - lo) * sliceQueries / sliceUpdates
				for j := 0; j < q; j++ {
					x := pairs.next()
					u, v := uint32(x>>32)%uint32(n), uint32(x)%uint32(n)
					if c, _ := st.Connected(u, v); c && ref != nil && !ref.connected(u, v) {
						wrong.Add(1)
					}
				}
				t2 := time.Now()
				res.slices = append(res.slices, t2.Sub(t0))
				res.bursts = append(res.bursts, t2.Sub(t1))
				res.ops += int64(hi - lo + q)
			}
			tr.end(sp)
		}(w)
	}
	wg.Wait()
	var out mixResult
	tr.timed("ingest.Sync", parent, op, st.Sync)
	out.wall = time.Since(start)
	for _, p := range perProd {
		out.ops += p.ops
		out.slices = append(out.slices, p.slices...)
		out.bursts = append(out.bursts, p.bursts...)
	}
	out.wrong = wrong.Load()
	return out
}

// stream is stream_mix_90_10: the ingest engine in-process, no server.
type stream struct {
	r     run
	n     int
	edges []connectit.Edge
	ref   *reference
}

func newStream(r run) *workload {
	s := &stream{r: r}
	return &workload{
		setup: func() error {
			s.n, s.edges = shuffledRMATEdges(r.sz, r.seed)
			s.ref = newReference(s.n, s.edges)
			if r.breakReference {
				breakRef(s.ref)
			}
			return nil
		},
		teardown: func() { s.edges, s.ref = nil, nil },
		measure:  s.measure,
		memMB:    func() float64 { return peakRSSMB(os.Getpid()) },
		panel:    func() panelInput { return panelInput{n: s.n, edges: s.edges[:min(len(s.edges), r.sz.panelEdges)]} },
	}
}

func (s *stream) measure(tr *tracer, budget time.Duration, rep *report) {
	deadline := time.Now().Add(budget)
	sz := s.r.sz
	var news, slices, bursts []time.Duration
	var rates []float64
	for i := -sz.streamWarm; i < sz.streamMin || time.Now().Before(deadline); i++ {
		op := int64(i)
		root := tr.start("bench.stream_rep", -1, op)
		var st *connectit.Stream
		dNew := tr.timed("ingest.NewStream", root, op, func() {
			var err error
			if st, err = connectit.NewStream(s.n, connectit.DefaultConfig()); err != nil {
				panic(err) // the default configuration streams
			}
		})
		res := driveMix(st, s.n, s.edges, s.r.seed+uint64(i+sz.streamWarm), s.ref, tr, root, op)
		comps := st.NumComponents()
		st.Close()
		tr.end(root)
		// The repetition's stream is garbage now; collecting it here keeps
		// the collector out of the next repetition's timed loop.
		runtime.GC()
		if i < 0 {
			continue
		}
		news = append(news, dNew)
		slices, bursts = append(slices, res.slices...), append(bursts, res.bursts...)
		rates = append(rates, float64(res.ops)/res.wall.Seconds())
		rep.attempted += res.ops
		rep.failed += res.wrong
		if res.wrong > 0 {
			rep.errorf("repetition %d: %d Connected calls answered true for pairs the reference separates", i, res.wrong)
		}
		if comps != s.ref.components {
			rep.failed++
			rep.errorf("repetition %d: %d components after Sync, reference %d", i, comps, s.ref.components)
		}
	}

	sl, bu := sortedCopy(msOf(slices)), sortedCopy(msOf(bursts))
	tail := pickTail(len(sl), 99)
	rep.add("ops_per_s", median(rates), "1/s")
	rep.add("slice_p10_ms", percentile(sl, 10), "ms")
	rep.add("query_burst_p10_ms", percentile(bu, 10), "ms")
	rep.add("newstream_ms", median(msOf(news)), "ms")
	rep.add("slice_p50_ms", percentile(sl, 50), "ms")
	rep.add("slice_p99_ms", percentile(sl, tail), "ms")
	rep.add("query_burst_p50_ms", percentile(bu, 50), "ms")
	rep.add("query_burst_p99_ms", percentile(bu, tail), "ms")
	rep.notef("%d timed repetitions after %d warm-up, %d edges each, %d producers, closed loop; a slice is %d updates then %d queries; tail is p%g of %d slices",
		len(rates), sz.streamWarm, len(s.edges), producers, sliceUpdates, sliceQueries, tail, len(sl))

	// Slices are short and many, so their median holds still (4 % over ten
	// runs); their p10 sits between the early slices, which union, and the
	// late ones, which the pre-filter drops, and moved 25 %.
	rep.roles["op_ms"] = percentile(sl, 50)
	rep.roles["read_ms"] = percentile(bu, 10)
}
