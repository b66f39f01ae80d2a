package parallel

// The persistent fork-join pool (DESIGN.md §2).
//
// The previous substrate spawned up to P goroutines per parallel call and
// funneled every worker through one shared atomic chunk counter. Both costs
// are paid on every call, and ConnectIt's hot paths are made of *many short
// calls*: Liu-Tarjan runs several flat sweeps per round, the ingest engine
// fires an apply round per coalesced group, and the union-find finish is one
// big sweep preceded and followed by small setup loops. This file replaces
// the spawn-per-call design with:
//
//   - P-1 long-lived workers parked on an epoch barrier: an atomic
//     generation counter that workers spin on briefly between jobs (so
//     back-to-back rounds never pay a wakeup) with a per-worker
//     flag-and-channel park as the blocking fallback. The calling goroutine
//     is always participant 0, so a pool job uses exactly
//     min(GOMAXPROCS, chunks) runnable goroutines and a steady-state call
//     performs zero goroutine spawns and zero heap allocations.
//   - Per-worker chunk ranges with randomized stealing: the iteration space
//     is pre-split into one contiguous chunk range per participant, each
//     claimed off a private padded cursor; a participant that exhausts its
//     range claims chunks from random victims' cursors instead. P workers
//     therefore share no cache line until load imbalance actually occurs,
//     unlike the old single shared counter that serialized every fine-grain
//     claim.
//   - Worker-identity loops (ForWorkerSized, Run) so kernels can keep
//     worker-local accumulators in arrays indexed by Worker.ID instead of
//     serializing on a mutex.
//
// Memory-model notes (these orderings are what make the pool race-free):
//
//   - Publication: the coordinator writes the job descriptor and every
//     participant's range, then stores each participant's jobEpoch, then
//     increments the epoch. A worker acts only when the epoch it observed
//     equals its own jobEpoch, so the jobEpoch load gives it
//     happens-before on the whole descriptor, and a worker that observes
//     the epoch bump early (while a previous participant set is still
//     retiring) skips jobs it is not part of instead of racing the setup.
//   - Completion: every executed chunk decrements the outstanding count;
//     participants retire by publishing the job epoch to their done slot
//     after their last claim. The coordinator returns only after the
//     outstanding count hits zero and every participant has retired, so no
//     worker can touch a descriptor that a later call is overwriting.
//   - Parking: a worker sets its parked flag, re-checks the epoch, and only
//     then blocks on its wake channel; the waker transfers ownership of the
//     flag with a CAS before sending, so wakeups are never lost. A token
//     can still arrive for a job the worker already ran (it caught the
//     epoch itself, retired, and re-parked before the wake sweep reached
//     it); the done-epoch guard in workerLoop rejects such spurious wakes
//     so no job is ever executed twice.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MaxWorkers caps the pool size (and therefore Worker IDs) regardless of
// GOMAXPROCS.
const MaxWorkers = 256

// spinIters bounds the between-jobs spin phase: long enough that the next
// sweep of a round-structured algorithm finds its workers still spinning,
// short enough that an idle pool parks within tens of microseconds. With a
// single hardware thread spinning can only steal cycles from whoever has
// the work (GOMAXPROCS > NumCPU is an oversubscribed test configuration),
// so the budget collapses to a token handful of checks.
var spinIters = func() int {
	if runtime.NumCPU() == 1 {
		return 16
	}
	return 2048
}()

// Worker is one participant of the persistent pool. Participant 0 is
// whichever goroutine issued the parallel call; participants 1..P-1 are the
// pool's long-lived goroutines. A Worker's fields are owned by the pool.
type Worker struct {
	id int
	// rng is the steal loop's victim-picking xorshift state, touched only
	// by the goroutine running as this worker.
	rng uint64

	// cur/end delimit this participant's chunk range for the current job.
	// cur sits alone on its cache line: the owner claims from it on every
	// chunk, and thieves only touch it when imbalance occurs.
	_   [64]byte
	cur atomic.Int64
	_   [56]byte
	end int64

	// jobEpoch gates participation: the worker runs job e only if
	// jobEpoch == e, which also carries happens-before on the descriptor.
	jobEpoch atomic.Uint64
	// done is the last epoch this worker fully retired from.
	done atomic.Uint64

	parked atomic.Bool
	wake   chan struct{}
}

// ID returns the worker's participant index, in [0, MaxWorkers). During one
// parallel call all executing workers have distinct IDs below the call's
// width (see Width).
func (w *Worker) ID() int { return w.id }

// rand advances the worker's xorshift state and returns it.
func (w *Worker) rand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

type jobMode int

const (
	modeRange jobMode = iota // chunked index range (For/ForGrained/ForWorkerSized)
	modeEvery                // every participant runs the body once (Run)
)

// Stats is a snapshot of the pool's lifetime counters, for
// `cmd/connectit -v` and the `sched` experiment.
type Stats struct {
	// Calls counts parallel calls dispatched onto the pool.
	Calls uint64
	// Sequential counts calls that ran inline instead: single-proc,
	// single-chunk, or nested/contended calls (the pool was busy).
	Sequential uint64
	// Chunks counts chunks executed by pool jobs.
	Chunks uint64
	// Steals counts chunks claimed from another participant's range.
	Steals uint64
	// Wakes counts parked workers woken by a dispatch; Parks counts
	// workers that gave up spinning between jobs and blocked.
	Wakes uint64
	// Parks counts workers that parked after the spin phase found no job.
	Parks uint64
}

type pool struct {
	mu sync.Mutex // serializes dispatches; TryLock failure → inline run

	epoch atomic.Uint64
	// outstanding counts not-yet-completed chunk executions of the current
	// job; the participant that drops it to zero wakes a parked coordinator.
	outstanding atomic.Int64
	waiting     atomic.Bool
	doneCh      chan struct{}

	// Job descriptor: written by the coordinator under mu before the epoch
	// bump, read by participants gated on jobEpoch. Exactly one of
	// body/bodyI/bodyW is non-nil per job.
	mode  jobMode
	body  func(lo, hi int)
	bodyI func(i int)
	bodyW func(w *Worker, lo, hi int)
	n     int
	grain int
	width int

	workers []*Worker

	calls      atomic.Uint64
	sequential atomic.Uint64
	chunks     atomic.Uint64
	steals     atomic.Uint64
	wakes      atomic.Uint64
	parks      atomic.Uint64
}

var (
	global   *pool
	poolOnce sync.Once
)

// seqWorkers recycles Worker stand-ins for sequential fallbacks of
// ForWorkerSized/Run (nested or contended calls, GOMAXPROCS=1), so the
// fallback path stays allocation-free in steady state too.
var seqWorkers = sync.Pool{New: func() any {
	return &Worker{rng: 0x9e3779b97f4a7c15}
}}

func getPool() *pool {
	poolOnce.Do(func() {
		global = &pool{doneCh: make(chan struct{}, 1)}
		global.workers = append(global.workers, &Worker{id: 0, rng: 0x2545f4914f6cdd1d})
	})
	return global
}

// PoolStats returns a snapshot of the pool's lifetime counters.
func PoolStats() Stats {
	p := getPool()
	return Stats{
		Calls:      p.calls.Load(),
		Sequential: p.sequential.Load(),
		Chunks:     p.chunks.Load(),
		Steals:     p.steals.Load(),
		Wakes:      p.wakes.Load(),
		Parks:      p.parks.Load(),
	}
}

// jobWidth returns the participant count for a job of the given chunk count.
func jobWidth(chunks int) int {
	w := runtime.GOMAXPROCS(0)
	if w > MaxWorkers {
		w = MaxWorkers
	}
	if w > chunks {
		w = chunks
	}
	return w
}

// Width returns the maximum number of distinct Worker IDs a ForWorkerSized call
// over n iterations at the given grain can use right now — the size to give
// arrays indexed by Worker.ID. It is at least 1.
func Width(n, grain int) int {
	if grain <= 0 {
		grain = DefaultGrain
	}
	chunks := (n + grain - 1) / grain
	if chunks < 1 {
		chunks = 1
	}
	w := jobWidth(chunks)
	if w < 1 {
		w = 1
	}
	return w
}

// ensureWorkers grows the pool to width participants. New workers start
// with their seen-epoch equal to the current epoch, so they cannot mistake
// an old job for a new one.
func (p *pool) ensureWorkers(width int) {
	for len(p.workers) < width {
		w := &Worker{
			id:   len(p.workers),
			wake: make(chan struct{}, 1),
			rng:  0x9e3779b97f4a7c15 * uint64(len(p.workers)+1),
		}
		p.workers = append(p.workers, w)
		go p.workerLoop(w, p.epoch.Load())
	}
}

// dispatch runs one job on the pool. The caller must hold p.mu and width
// must be ≥ 2. outstanding is the number of finish() completions the job
// produces (chunks for modeRange, width for modeEvery).
func (p *pool) dispatch(width int, chunks int64, outstanding int64) {
	p.ensureWorkers(width)
	p.width = width
	// Split [0, chunks) into one contiguous range per participant. For
	// modeEvery, chunks == 0 and every range is empty.
	for k := 0; k < width; k++ {
		w := p.workers[k]
		w.cur.Store(chunks * int64(k) / int64(width))
		w.end = chunks * int64(k+1) / int64(width)
	}
	p.outstanding.Store(outstanding)
	e := p.epoch.Load() + 1
	for k := 1; k < width; k++ {
		p.workers[k].jobEpoch.Store(e)
	}
	p.epoch.Store(e)
	// Wake parked participants; spinning ones notice the epoch themselves.
	// A participant that already retired from this job (it caught the epoch
	// during its park/recheck window, ran, and re-parked before this sweep
	// reached it) is skipped; the workerLoop done guard covers the race
	// where it retires between the check and the CAS.
	for k := 1; k < width; k++ {
		w := p.workers[k]
		if w.done.Load() != e && w.parked.CompareAndSwap(true, false) {
			p.wakes.Add(1)
			w.wake <- struct{}{}
		}
	}
	p.calls.Add(1)
	// The caller is participant 0.
	p.work(p.workers[0])
	p.await(e, width)
	// Drop body references so the pool does not retain caller memory
	// between calls. Every participant has retired (await), so nothing
	// reads the descriptor anymore.
	p.body = nil
	p.bodyI = nil
	p.bodyW = nil
}

// work claims and executes chunks: first the participant's own range, then
// random victims' ranges until no claimable chunk remains.
func (p *pool) work(w *Worker) {
	if p.mode == modeEvery {
		p.bodyW(w, 0, 0)
		p.finish(1)
		return
	}
	executed := uint64(0)
	for {
		c := w.cur.Add(1) - 1
		if c >= w.end {
			break
		}
		p.runChunk(w, c)
		executed++
	}
	// Steal phase. A failed full scan means every chunk is claimed (the
	// remaining ones are mid-execution elsewhere): nothing left to do.
	width := p.width
	if width > 1 {
		for p.outstanding.Load() > 0 {
			found := false
			off := int(w.rand() % uint64(width))
			for i := 0; i < width; i++ {
				v := p.workers[(off+i)%width]
				if v == w || v.cur.Load() >= v.end {
					continue
				}
				if c := v.cur.Add(1) - 1; c < v.end {
					p.steals.Add(1)
					p.runChunk(w, c)
					executed++
					found = true
					break
				}
			}
			if !found {
				break
			}
		}
	}
	if executed > 0 {
		p.chunks.Add(executed)
	}
}

func (p *pool) runChunk(w *Worker, c int64) {
	lo := int(c) * p.grain
	hi := lo + p.grain
	if hi > p.n {
		hi = p.n
	}
	switch {
	case p.body != nil:
		p.body(lo, hi)
	case p.bodyI != nil:
		for i := lo; i < hi; i++ {
			p.bodyI(i)
		}
	default:
		p.bodyW(w, lo, hi)
	}
	p.finish(1)
}

// finish retires k chunk executions, waking a parked coordinator at zero.
func (p *pool) finish(k int64) {
	if p.outstanding.Add(-k) == 0 {
		if p.waiting.CompareAndSwap(true, false) {
			p.doneCh <- struct{}{}
		}
	}
}

// await blocks the coordinator until the job is fully complete: all chunks
// executed and every participant retired from the descriptor.
func (p *pool) await(e uint64, width int) {
	if p.outstanding.Load() != 0 {
		spun := false
		for i := 0; i < spinIters; i++ {
			if p.outstanding.Load() == 0 {
				spun = true
				break
			}
			if i&63 == 63 {
				runtime.Gosched()
			}
		}
		if !spun {
			p.waiting.Store(true)
			if p.outstanding.Load() == 0 {
				// The job finished between the check and the flag; reclaim
				// the flag or consume the token the finisher sent.
				if !p.waiting.CompareAndSwap(true, false) {
					<-p.doneCh
				}
			} else {
				<-p.doneCh
			}
		}
	}
	// Participants retire almost immediately after the last chunk; this
	// wait is what licenses the next dispatch to overwrite the descriptor.
	for k := 1; k < width; k++ {
		w := p.workers[k]
		for w.done.Load() != e {
			runtime.Gosched()
		}
	}
}

// workerLoop is the body of participants 1..P-1: wait for an epoch bump,
// run the job if this worker is in its participant set, retire, repeat.
func (p *pool) workerLoop(w *Worker, seen uint64) {
	for {
		e := p.waitEpoch(w, seen)
		seen = e
		// The done check rejects spurious wakes: a worker that catches the
		// epoch during its own park/recheck window, finishes the job, and
		// re-parks before the dispatch's wake sweep reaches it receives a
		// token for the job it already retired from. Re-running it would
		// double-execute chunks; the guard turns the stale token into a
		// harmless extra loop iteration.
		if w.jobEpoch.Load() == e && w.done.Load() != e {
			p.work(w)
			w.done.Store(e)
		}
	}
}

// waitEpoch spins until the epoch moves past seen, parking after the spin
// budget. The parked flag is handed over by CAS, so a wake token is sent
// iff the worker will consume it.
func (p *pool) waitEpoch(w *Worker, seen uint64) uint64 {
	for i := 0; i < spinIters; i++ {
		if e := p.epoch.Load(); e != seen {
			return e
		}
		if i&63 == 63 {
			runtime.Gosched()
		}
	}
	p.parks.Add(1)
	w.parked.Store(true)
	if e := p.epoch.Load(); e != seen {
		if w.parked.CompareAndSwap(true, false) {
			return e
		}
		// A waker claimed the flag first and owes us a token.
		<-w.wake
		return p.epoch.Load()
	}
	<-w.wake
	return p.epoch.Load()
}

// forGrained is the shared dispatcher behind For/ForGrained/ForWorkerSized.
// Exactly one of body/bodyI/bodyW is non-nil. widthCap, when positive,
// bounds the participant count (ForWorkerSized's worker-ID guarantee).
func forGrained(n, grain, widthCap int, body func(lo, hi int), bodyI func(i int), bodyW func(w *Worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	chunks := (n + grain - 1) / grain
	width := jobWidth(chunks)
	if widthCap > 0 && width > widthCap {
		width = widthCap
	}
	p := getPool()
	if width <= 1 || !p.mu.TryLock() {
		// Single-proc, single-chunk, nested (a body running on this pool
		// issued a parallel call), or contended (another goroutine's call
		// holds the pool): run inline on this goroutine. Nested calls MUST
		// take this path — blocking on mu from inside a job would deadlock
		// the pool against itself.
		p.sequential.Add(1)
		switch {
		case body != nil:
			body(0, n)
		case bodyI != nil:
			for i := 0; i < n; i++ {
				bodyI(i)
			}
		default:
			w := seqWorkers.Get().(*Worker)
			bodyW(w, 0, n)
			seqWorkers.Put(w)
		}
		return
	}
	defer p.mu.Unlock()
	p.mode = modeRange
	p.body = body
	p.bodyI = bodyI
	p.bodyW = bodyW
	p.n = n
	p.grain = grain
	p.dispatch(width, int64(chunks), int64(chunks))
}

// Run executes fn once per participant, concurrently: the calling goroutine
// runs fn(worker 0) and each pool worker k < width runs fn(worker k). It is
// the escape hatch for kernels that want explicit worker-local accumulation
// with scratch that persists across calls. When the pool is unavailable
// (GOMAXPROCS=1, nested, or contended) fn runs once, sequentially, on a
// recycled stand-in worker.
func Run(fn func(w *Worker)) {
	p := getPool()
	width := jobWidth(MaxWorkers)
	if width <= 1 || !p.mu.TryLock() {
		p.sequential.Add(1)
		w := seqWorkers.Get().(*Worker)
		fn(w)
		seqWorkers.Put(w)
		return
	}
	defer p.mu.Unlock()
	p.mode = modeEvery
	p.body = nil
	p.bodyI = nil
	p.bodyW = func(w *Worker, _, _ int) { fn(w) }
	p.n = 0
	p.grain = 1
	p.dispatch(width, 0, int64(width))
}
