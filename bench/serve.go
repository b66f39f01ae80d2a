package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"connectit"
	"connectit/internal/wire"
)

// The serve_mixed traffic plan. Rates are offered, not achieved: the
// generator sends on schedule whatever the server does.
const (
	refRate     = 1_000_000 // edges/s: the step every ack and visibility latency is reported at
	rateScale   = 1.0       // common factor on all four steps; 1.0 = the reference host holds refRate inside the limits
	refStep     = 2
	ackLimitMs  = 20.0 // a step is "ok" while the ack tail stays under this …
	readLimitMs = 5.0  // … and the read tail under this
	readPeriod  = time.Millisecond
	markerEvery = 16 // one frame in 16 ends with a visibility marker
	burstBatch  = 4096
)

var (
	stepRates = []float64{0.25, 0.5, 1, 2} // multiples of refRate·rateScale
	stepParts = []int{1, 1, 4, 1}          // tenths of the run's seconds; the rest is burst and recovery
)

// serve is serve_mixed: one edge's whole journey through the real binary.
type serve struct {
	r       run
	budget  time.Duration
	n       int // RMAT vertices; the marker vertices sit above
	nServer int
	edges   []connectit.Edge
	sched   *schedule
	frames  [][]byte
	ref     *reference

	bin    string
	ch     *child
	walDir string
	used   bool // the current child has served a measurement

	rss        float64
	groupEdges int                  // observed mean flush group at the reference rate (traced runs)
	scrapes    []map[string]float64 // /metrics at t0 and at each step's end (traced runs)
	ackP50     float64
	readP50    float64
}

func newServe(r run) *workload {
	s := &serve{r: r, budget: time.Duration(r.seconds * float64(time.Second))}
	if r.trace {
		s.budget /= 4
	}
	onExit(func() {
		if s.ch != nil {
			s.ch.kill()
		}
	})
	return &workload{
		setup:    s.setup,
		teardown: s.teardown,
		measure:  s.measure,
		memMB:    func() float64 { return s.rss },
		panel: func() panelInput {
			return panelInput{n: s.n, edges: s.edges[:min(len(s.edges), r.sz.panelEdges)], groupEdges: s.groupEdges}
		},
		layers: s.layers,
	}
}

func (s *serve) markerPair(k int) (uint32, uint32) {
	return uint32(s.n + 2*k), uint32(s.n + 2*k + 1)
}

// frameBatch fills dst with frame i's edges: the next 1024 of the shuffled
// edge list, cycling, and for every 16th frame a last edge joining that
// frame's two reserved marker vertices.
func (s *serve) frameBatch(i int, dst []connectit.Edge) {
	for j := range dst {
		dst[j] = s.edges[(i*frameEdges+j)%len(s.edges)]
	}
	if i%markerEvery == markerEvery-1 {
		u, v := s.markerPair(i / markerEvery)
		dst[len(dst)-1] = connectit.Edge{U: u, V: v}
	}
}

func (s *serve) burstEdges() []connectit.Edge {
	return s.edges[:min(len(s.edges), s.r.sz.burstEdges)]
}

func (s *serve) setup() error {
	if s.bin == "" {
		var err error
		if s.bin, err = serverBinary(s.r.root); err != nil {
			return err
		}
	}
	s.n, s.edges = shuffledRMATEdges(s.r.sz, s.r.seed)
	var steps []step
	for k, m := range stepRates {
		steps = append(steps, step{m * refRate * rateScale, s.budget * time.Duration(stepParts[k]) / 10})
	}
	s.sched = newSchedule(steps)
	nf := len(s.sched.due)
	s.nServer = s.n + 2*(nf/markerEvery+1)

	// Frames are encoded here, once: the generator's hot loop only writes
	// bytes. The reference unions exactly what will be sent.
	rb := newRefBuilder(s.nServer)
	s.frames = make([][]byte, nf)
	batch := make([]connectit.Edge, frameEdges)
	for i := range s.frames {
		s.frameBatch(i, batch)
		s.frames[i] = wire.AppendFrame(nil, batch)
		rb.add(batch)
	}
	rb.add(s.burstEdges())
	s.ref = rb.finish()
	if s.r.breakReference {
		breakRef(s.ref)
	}
	return s.boot(true)
}

// boot starts a child and waits for /healthz; fresh gives it a new, empty
// WAL directory, otherwise it recovers from the current one on the ports
// its predecessor had.
func (s *serve) boot(fresh bool) error {
	httpAddr, ingestAddr := "", ""
	if fresh {
		var err error
		if s.walDir, err = os.MkdirTemp(s.r.tmp, "serve-"); err != nil {
			return err
		}
		s.walDir = filepath.Join(s.walDir, "wal")
		ports, err := freePorts(2)
		if err != nil {
			return err
		}
		httpAddr, ingestAddr = ports[0], ports[1]
	} else {
		httpAddr, ingestAddr = s.ch.http, s.ch.ingest
	}
	ch, err := startChild(s.bin, s.walDir, httpAddr, ingestAddr, s.nServer)
	if err != nil {
		return err
	}
	s.ch, s.used = ch, false
	_, err = ch.waitHealthy(30 * time.Second)
	return err
}

func (s *serve) teardown() {
	if s.ch != nil {
		s.ch.kill()
		s.ch = nil
		os.RemoveAll(filepath.Dir(s.walDir))
	}
	s.edges, s.frames, s.ref = nil, nil, nil
}

// reader is connection 2: one keep-alive HTTP connection issuing
// GET /v1/connected every readPeriod, open loop.
type reader struct {
	client *http.Client
	base   string
}

func newReader(addr string) *reader {
	return &reader{
		client: &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
		base:   "http://" + addr + "/v1/connected?",
	}
}

func (rd *reader) connected(u, v uint32) (bool, error) {
	resp, err := rd.client.Get(fmt.Sprintf("%su=%d&v=%d", rd.base, u, v))
	if err != nil {
		return false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("GET /v1/connected: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return bytes.Contains(body, []byte(`"connected":true`)), nil
}

type readResult struct {
	due, sent, done time.Duration
	ok              bool
}

type visibleResult struct {
	frame   int
	latency time.Duration // marker frame's due time → first connected:true
	ok      bool
}

// markerGiveUp is how long the reader keeps asking for one marker before it
// counts it as never visible and moves on.
const markerGiveUp = 2 * time.Second

// readLoop issues the scheduled reads from t0 until the schedule has ended
// and every marker is resolved. A read goes to the oldest marker pair whose
// frame is due and not yet seen connected, otherwise to a seeded random
// pair, whose answer is checked against the reference.
func (s *serve) readLoop(rd *reader, t0 time.Time, rep *report) (reads []readResult, vis []visibleResult) {
	pairs := rng(s.r.seed ^ 0x7ead)
	nMarkers := len(s.frames) / markerEvery
	markerDue := func(k int) time.Duration { return s.sched.due[k*markerEvery+markerEvery-1] }
	next := 0
	end := s.sched.total()
	for j := 0; ; j++ {
		due := time.Duration(j) * readPeriod
		// Wall time bounds the loop as well as the schedule: against a hung
		// server every read burns its whole timeout and j crawls.
		if (due >= end && next >= nMarkers) || time.Since(t0) >= end+ackGrace {
			break
		}
		if d := time.Until(t0.Add(due)); d > 0 {
			time.Sleep(d)
		}
		marker := next < nMarkers && markerDue(next) <= due
		var u, v uint32
		if marker {
			u, v = s.markerPair(next)
		} else {
			x := pairs.next()
			u, v = uint32(x>>32)%uint32(s.n), uint32(x)%uint32(s.n)
		}
		sent := time.Since(t0)
		conn, err := rd.connected(u, v)
		done := time.Since(t0)
		if due < end {
			reads = append(reads, readResult{due, sent, done, err == nil})
		}
		switch {
		case err != nil:
			rep.errorf("read %d: %v", j, err)
		case marker && conn:
			vis = append(vis, visibleResult{next*markerEvery + markerEvery - 1, done - markerDue(next), true})
			next++
		case marker && done-markerDue(next) > markerGiveUp:
			vis = append(vis, visibleResult{next*markerEvery + markerEvery - 1, 0, false})
			next++
		case !marker && conn && !s.ref.connected(u, v):
			rep.failed++
			rep.errorf("read %d: connected(%d,%d)=true, the reference over all sent edges separates them", j, u, v)
		}
	}
	return reads, vis
}

// verify asks the server about a sample of acked edges: every one must be
// connected, or an acknowledged union was lost.
func (s *serve) verify(rd *reader, frames []frameResult, when string, rep *report) {
	pick := rng(s.r.seed ^ 0x7e1f)
	batch := make([]connectit.Edge, frameEdges)
	for k := 0; k < s.r.sz.verifyReads; k++ {
		i := pick.intn(len(frames))
		if !frames[i].ok {
			continue
		}
		s.frameBatch(i, batch)
		e := batch[pick.intn(frameEdges)]
		conn, err := rd.connected(e.U, e.V)
		rep.attempted++
		if err != nil || !conn {
			rep.failed++
			rep.errorf("%s: acked edge (%d,%d) of frame %d: connected=%v err=%v", when, e.U, e.V, i, conn, err)
		}
		if err != nil {
			return // the server is gone or hung; the rest would only time out
		}
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

func (s *serve) measure(tr *tracer, _ time.Duration, rep *report) {
	if s.used {
		// A second measurement (the traced one) needs an empty server, or
		// every marker would already be connected.
		s.ch.kill()
		os.RemoveAll(filepath.Dir(s.walDir))
		if err := s.boot(true); err != nil {
			rep.errorf("fresh server: %v", err)
			return
		}
	}
	s.used = true
	conn, err := dialIngest(s.ch.ingest)
	if err != nil {
		rep.errorf("ingest connection: %v", err)
		return
	}
	defer conn.Close()
	rd := newReader(s.ch.http)
	if _, err := rd.connected(0, 1); err != nil { // opens connection 2 before the clock starts
		rep.errorf("read connection: %v", err)
		return
	}

	// Open loop: frames on connection 1, reads on connection 2, both timed
	// from due times off one clock.
	t0 := time.Now().Add(20 * time.Millisecond)
	root := tr.start("bench.open_loop", -1, 0)
	var wg sync.WaitGroup
	var reads []readResult
	var vis []visibleResult
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads, vis = s.readLoop(rd, t0, rep)
	}()
	if tr.on {
		s.scrapes = nil
		wg.Add(1)
		go func() { // /metrics at the start and at each step's end
			defer wg.Done()
			for _, at := range append([]time.Duration{0}, s.sched.ends...) {
				time.Sleep(time.Until(t0.Add(at)))
				m, _ := s.ch.scrape()
				s.scrapes = append(s.scrapes, m)
			}
		}()
	}
	// The generator holds ~150 MB of pre-built input; a collection of it in
	// the middle of the schedule would make the generator late. It allocates
	// little while sending, so collection simply waits for the phase to end.
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	cpu0 := cpuSeconds()
	frames := sendOpenLoop(conn, s.frames, s.sched, t0)
	genCPU := (cpuSeconds() - cpu0) / time.Since(t0).Seconds()
	wg.Wait()
	debug.SetGCPercent(gcPercent)
	tr.end(root)
	// One span pair per reference-rate frame, from outside: due → sent is
	// the generator, sent → acked everything between the socket and the ack.
	for i, f := range frames {
		if f.ok && s.sched.stepOf[i] == refStep {
			tr.record("gen.late", t0.Add(f.due), t0.Add(f.sent), root, int64(i))
			tr.record("server.frame_to_ack", t0.Add(f.sent), t0.Add(f.acked), root, int64(i))
		}
	}

	// Per step: ack and read tails, failures, backlog.
	nSteps := len(s.sched.steps)
	acks, lates := make([][]float64, nSteps), make([][]float64, nSteps)
	stepFailed, stepBacklog := make([]int, nSteps), make([]bool, nSteps)
	for i, f := range frames {
		k := s.sched.stepOf[i]
		rep.attempted++
		if !f.ok {
			rep.failed++
			stepFailed[k]++
			continue
		}
		acks[k] = append(acks[k], ms(f.latency()))
		if f.acked > s.sched.ends[k]+time.Second {
			stepBacklog[k] = true
		}
		lates[k] = append(lates[k], ms(f.late()))
	}
	lost := 0
	for _, n := range stepFailed {
		lost += n
	}
	if lost > 0 {
		rep.errorf("%d frames were refused or not acked within %v of the schedule's end", lost, ackGrace)
	}
	stepReads := make([][]float64, nSteps)
	var allReads, readService []float64
	for _, r := range reads {
		rep.attempted++
		if !r.ok {
			rep.failed++
			continue
		}
		k := 0
		for r.due >= s.sched.ends[k] {
			k++
		}
		stepReads[k] = append(stepReads[k], ms(r.done-r.due))
		allReads = append(allReads, ms(r.done-r.due))
		readService = append(readService, ms(r.done-r.sent))
	}
	var visRef []float64
	for _, v := range vis {
		rep.attempted++
		if !v.ok {
			rep.failed++
			rep.errorf("marker of frame %d never became visible", v.frame)
		} else if s.sched.stepOf[v.frame] == refStep {
			visRef = append(visRef, ms(v.latency))
		}
	}
	maxOK := 0.0
	for k, st := range s.sched.steps {
		a, r := sortedCopy(acks[k]), sortedCopy(stepReads[k])
		ackTail, readTail := percentile(a, pickTail(len(a), 99)), percentile(r, pickTail(len(r), 99))
		ok := stepFailed[k] == 0 && !stepBacklog[k] && ackTail <= ackLimitMs && readTail <= readLimitMs
		l := sortedCopy(lates[k])
		rep.notef("step %d: %.0f edges/s for %v: %d frames, ack p50 %.3f tail %.3f ms, read tail %.3f ms, sent late p50 %.3f tail %.3f ms, failed %d, backlog %v → ok %v",
			k, st.edgesPerS, st.dur, len(a)+stepFailed[k], percentile(a, 50), ackTail, readTail,
			percentile(l, 50), percentile(l, pickTail(len(l), 99)), stepFailed[k], stepBacklog[k], ok)
		if ok {
			maxOK = max(maxOK, st.edgesPerS)
		}
	}

	if tr.on {
		s.scrapeLayers(rep)
	}

	// Closed-loop saturation burst through the library client: one
	// connection, burstWindows windows of burstEdges edges back to back,
	// each window's rate taken from the clock at its last Send (the last
	// window's at the Flush that drains the pipeline).
	burst := s.burstEdges()
	var peaks []float64
	var burstErr error
	tr.timed("client.Send+Flush", -1, 0, func() {
		// No reconnects and a short ack wait: against a hung server the
		// burst fails in seconds instead of riding out the client's retries.
		c, err := connectit.DialIngestWith(s.ch.ingest, connectit.DialIngestOptions{
			ReadTimeout: 5 * time.Second, Retry: connectit.RetryPolicy{MaxAttempts: -1}})
		if err != nil {
			burstErr = err
			return
		}
		defer c.Close()
		for k := 0; k < s.r.sz.burstWindows && burstErr == nil; k++ {
			t0 := time.Now()
			for lo := 0; lo < len(burst) && burstErr == nil; lo += burstBatch {
				burstErr = c.Send(burst[lo:min(lo+burstBatch, len(burst))])
			}
			if k == s.r.sz.burstWindows-1 && burstErr == nil {
				_, burstErr = c.Flush()
			}
			rep.attempted += int64(len(burst) / burstBatch)
			peaks = append(peaks, float64(len(burst))/time.Since(t0).Seconds())
		}
	})
	if burstErr != nil {
		rep.failed++
		rep.errorf("saturation burst: %v", burstErr)
	}
	s.rss = peakRSSMB(s.ch.cmd.Process.Pid)
	s.verify(rd, frames, "before kill -9", rep)

	// kill -9, restart on the same log, time to healthy: a full replay of
	// a log whose length the schedule fixes.
	var recovers []float64
	for i := 0; i < s.r.sz.recoverReps; i++ {
		rd.client.CloseIdleConnections()
		s.ch.kill()
		d := tr.timed("server.recover", -1, int64(i), func() {
			if err := s.boot(false); err != nil {
				rep.errorf("restart after kill -9: %v", err)
			}
		})
		recovers = append(recovers, d.Seconds())
		rep.attempted++
	}
	s.used = true
	s.verify(rd, frames, "after kill -9 and recovery", rep)

	a, r, v := sortedCopy(acks[refStep]), sortedCopy(allReads), sortedCopy(visRef)
	ackTail, readTail, visTail := pickTail(len(a), 99), pickTail(len(r), 99), pickTail(len(v), 95)
	peak := median(peaks)
	rep.add("ack_p10_ms", percentile(a, 10), "ms")
	rep.add("ack_p50_ms", percentile(a, 50), "ms")
	rep.add("ack_p90_ms", percentile(a, pickTail(len(a), 90)), "ms")
	rep.add("ack_p99_ms", percentile(a, ackTail), "ms")
	rep.add("visible_p50_ms", percentile(v, 50), "ms")
	rep.add("visible_p95_ms", percentile(v, visTail), "ms")
	rep.add("read_p10_ms", percentile(r, 10), "ms")
	rep.add("read_p50_ms", percentile(r, 50), "ms")
	rep.add("read_p90_ms", percentile(r, pickTail(len(r), 90)), "ms")
	rep.add("read_p99_ms", percentile(r, readTail), "ms")
	rep.add("read_service_p50_ms", percentile(sortedCopy(readService), 50), "ms")
	rep.add("max_ok_rate", maxOK, "1/s")
	rep.add("peak_edges_per_s", peak, "1/s")
	rep.add("visible_p10_ms", percentile(v, 10), "ms")
	rep.add("recover_s", median(recovers), "s")
	late := sortedCopy(lates[refStep])
	rep.add("gen.late_p99_ms", percentile(late, pickTail(len(late), 99)), "ms")
	rep.add("gen.cpu_share", genCPU, "share")
	rep.add("client.send_ns_per_edge", 1e9/peak, "ns")
	rep.notef("reference rate %d edges/s × scale %g; tails: ack p%g of %d frames, read p%g of %d reads, visible p%g of %d markers (resolution: the %v read period)",
		refRate, rateScale, ackTail, len(a), readTail, len(r), visTail, len(v), readPeriod)
	rep.notef("prediction under the default Type (i) spec: visible ≈ ack + one read; measured visible_p50 − ack_p50 = %.3f ms",
		percentile(v, 50)-percentile(a, 50))
	rep.notef("burst window rates, edges/s: %.3g", peaks)
	rep.notef("flush policy: fsync per group, 2 ms flush interval; burst of %d windows of %d edges in %d-edge batches; recovery replays %d frames + the bursts, median of %d",
		len(peaks), len(burst), burstBatch, len(frames), len(recovers))

	s.ackP50, s.readP50 = percentile(a, 50), percentile(r, 50)
	rep.roles["op_ms"] = percentile(a, 10)
	// A read's latency from its due time is mostly the host's 1 ms timer
	// granularity, which the median carries evenly; its p10 is the rare read
	// the timer released on time and moved 24 % between two sets of ten runs.
	rep.roles["read_ms"] = percentile(r, 50)
}
