// Package ingest implements the concurrent streaming ingest engine: a
// Stream accepts interleaved Update and Connected calls from arbitrarily
// many goroutines and schedules them onto a core.Incremental according to
// the compiled algorithm's stream type (§3.5 of the paper, DESIGN.md §9).
//
// Buffered updates move through a coalescing epoch pipeline:
//
//	seal → queue → coalesce → round
//
// Updates are spread over per-shard epoch buffers by a stateless hash of
// the edge. A shard that reaches the epoch size seals its buffer — the
// epoch is registered in-flight and pushed onto the apply queue *under the
// shard's lock*, so a concurrent Sync can never observe the buffer empty
// without also observing the epoch in flight. The sealing producer then
// drains the queue: each apply round takes the round mutex once, pops
// every queued epoch up to the coalesce bound, and applies them as one
// batch under the stream type's discipline. Producers that seal while a
// round is mid-flight therefore do not pay a round of their own — their
// epochs coalesce into the next round — and producers self-throttle
// against the structure (backpressure) without a dedicated applier
// goroutine. The three stream types map onto three scheduling
// disciplines:
//
//   - Type i (async union-find): no buffering. Updates union directly and
//     queries read directly; everything runs fully concurrently and every
//     operation is linearizable at its own return.
//   - Type ii (Shiloach-Vishkin, RootUp Liu-Tarjan): updates buffer into
//     epochs and coalesced rounds apply under the round mutex; queries
//     stay wait-free against the parent array at all times. Coalescing is
//     what makes small epochs affordable: each synchronous round costs
//     O(n), so paying it once per coalesced group instead of once per
//     shard-epoch is the engine's main Type ii throughput lever.
//   - Type iii (Rem + SpliceAtomic): as Type ii, but the round additionally
//     takes the write side of a phase lock whose read side every query
//     holds, realizing Theorem 3's update/query phase separation — held
//     once per coalesced group, not once per epoch.
//
// Intra-component edges are filtered before they link anything. A Type i
// union is its own filter: its walk stops where the endpoints' paths meet,
// so Update makes one walk and counts such an edge filtered. Before a
// buffered round reaches the union loop, a sampling-based pre-filter probes
// both endpoints' parent chains in parallel (read-only, bounded) and drops
// the edges whose chains meet; on power-law streams the bulk of late
// updates are intra-component, so this replaces most of the round's unions
// with a few cache-friendly loads.
//
// Visibility semantics: a Type i update is visible to every query that
// starts after Update returns. A buffered (Type ii/iii) update becomes
// visible when its epoch's round completes — at the latest after the next
// Sync returns. Queries never report connectivity that does not follow
// from accepted updates (components only ever grow toward the union of all
// accepted updates).
package ingest

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"connectit/internal/core"
	"connectit/internal/graph"
	"connectit/internal/parallel"
	"connectit/internal/query"
)

// ErrClosed is returned by Update, UpdateBatch, Connected, and every query
// issued through a Query engine after Close: a closed stream's state is
// final, so mutations are rejected and queries fail fast instead of
// answering from a structure the caller believes sealed. The canonical
// list of read-only survivors — the snapshot surface a server needs after
// Close — is documented once, on connectit.ErrStreamClosed (stream.go).
var ErrClosed = errors.New("ingest: stream closed")

// Options tunes a Stream. The zero value selects the defaults.
type Options struct {
	// Shards is the number of update buffers concurrent producers are
	// spread over. Default: GOMAXPROCS.
	Shards int
	// EpochSize is the number of buffered updates at which a shard seals
	// its epoch and queues it for apply. Default 4096. Type i streams
	// never buffer and ignore it.
	EpochSize int
}

const (
	defaultEpochSize = 4096
	// coalesceFactor bounds a round at 16 epochs of buffered updates. The
	// bound never binds on any stream measured: a producer that seals
	// drains the queue before it returns, so the queue holds at most one
	// epoch per producer waiting on the round mutex plus Sync's residual
	// epochs (one per shard). Shuffled RMAT(19) streams coalesced 1.00
	// epochs per round at 2 producers and 2.9–3.7 at 8 (Type ii), and as
	// many with the bound raised to 2³⁰. It stays as a cap on worst-case
	// round latency.
	coalesceFactor = 16
	// probeBudget bounds the buffered rounds' read-only parent-chain
	// probe, in chase steps.
	probeBudget = 32
)

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.EpochSize <= 0 {
		o.EpochSize = defaultEpochSize
	}
	return o
}

// Stats is a point-in-time snapshot of a Stream's operation counters.
type Stats struct {
	// Updates is the number of accepted updates (one per Update call, one
	// per UpdateBatch edge), counted as each is buffered, applied in place
	// or filtered.
	Updates uint64
	// Filtered is the number of updates that joined nothing: self-loops,
	// Type i unions that found both endpoints in one set, and edges a
	// buffered round's pre-filter probe found intra-component.
	Filtered uint64
	// Applied is the number of updates that got past the filter. For Type
	// i it counts the unions that merged two components, so Applied equals
	// Len() − NumComponents() at quiescence; for buffered types it counts
	// the edges handed to the apply path, an upper bound on the merges.
	Applied uint64
	// Epochs is the number of sealed epochs pushed onto the apply queue
	// (Type ii/iii), including partial epochs drained by Sync.
	Epochs uint64
	// Rounds is the number of apply rounds run. Each round acquires the
	// stream type's exclusion once and applies one coalesced group, so
	// Rounds ≤ Epochs and the gap is the coalescing win.
	Rounds uint64
	// Coalesced is the number of epochs that shared a round with at least
	// one other epoch instead of paying their own: Epochs − Rounds at
	// quiescence.
	Coalesced uint64
}

// shard is one epoch buffer. The pad keeps neighboring shards' mutexes off
// one cache line under heavy multi-producer traffic.
type shard struct {
	mu  sync.Mutex
	buf []graph.Edge
	_   [64 - 8]byte
}

// exit names the ways an update that passed the close gate leaves it.
type exit uint8

const (
	// exitAborted: the call mutated nothing it will be counted for — Close
	// won the gate re-check, or the call panicked (a vertex out of range).
	exitAborted exit = iota
	// exitFiltered: a self-loop, or a Type i union that found the
	// endpoints already joined.
	exitFiltered
	// exitApplied: a Type i union that merged two components.
	exitApplied
	// exitBuffered: appended to an epoch buffer (Type ii/iii); the round
	// that applies it counts it filtered or applied.
	exitBuffered
	numExits
)

// slot is one producer's accounting line: every word the Update hot path
// writes, on one cache line. A caller borrows a slot through Stream.tokens,
// and sync.Pool's per-P private entry hands a goroutine back the token its
// P last used, so in steady state each line
// has one writing core and an Update's two read-modify-writes (entered,
// then one left word) never leave that core's cache. Choosing the line by
// a hash of the edge instead sends every producer to every line; that
// bouncing, not the union, was 70 % of the 90/10 mix (DESIGN.md §9
// "Per-operation accounting").
//
// All words only grow. Updates past the gate and not yet out are
// Σentered − Σleft over the slots; Stats.Updates is Σleft without the
// aborted word. Neither is stored.
type slot struct {
	entered atomic.Uint64
	left    [numExits]atomic.Uint64
	_       [64 - 8*(1+numExits)]byte
}

// tally is the slot words summed.
type tally struct {
	entered uint64
	left    [numExits]uint64
}

// inFlight is the number of updates past the close gate that have not left.
func (t tally) inFlight() uint64 {
	n := t.entered
	for _, l := range t.left {
		n -= l
	}
	return n
}

// Stream is a concurrent streaming connectivity structure. All methods are
// safe for concurrent use by any number of goroutines.
type Stream struct {
	inc    *core.Incremental
	stype  core.StreamType
	opt    Options
	shards []shard
	spare  sync.Pool // recycled epoch buffers

	// roundMu serializes apply rounds (and quiescent snapshots): it is
	// what concurrently-sealing producers block on, so their epochs merge
	// into the winner's next round. phase additionally separates Type iii
	// rounds (write side) from queries (read side); it is taken inside
	// roundMu only once a round has a non-empty group in hand, so queries
	// never stall behind a writer acquisition that would find nothing to
	// apply. scratch is the coalesced-round batch buffer, owned by the
	// roundMu holder.
	roundMu sync.Mutex
	phase   sync.RWMutex
	scratch []graph.Edge

	// The sealed-epoch queue. queue holds epochs sealed but not yet popped
	// by an apply round; inflight counts epochs sealed but not yet fully
	// applied (queued + mid-round), so it can only reach zero after every
	// sealed update is visible. Sealing registers the epoch here under the
	// sealing shard's lock — before the batch leaves the buffer — so Sync,
	// which drains every shard and then waits for zero, can never miss an
	// epoch that left a buffer before Sync observed it. inflight is atomic
	// only so PendingEpochs can read it lock-free for backpressure
	// decisions; every write still happens under qmu for the quiet-cond
	// coordination.
	qmu      sync.Mutex
	queue    [][]graph.Edge
	inflight atomic.Int64
	quiet    *sync.Cond // broadcast when inflight drops to zero

	// Close gate. closed flips once; Close then waits until the slots show
	// no update past the gate and not yet out, before the final Sync.
	// closeDone is closed when Close's drain completes, making later Close
	// calls idempotent waits.
	closed    atomic.Bool
	closeDone chan struct{}

	// Per-operation accounting (see slot). tokens lends out pointers into
	// slots; minted is the next slot a new token gets. Options.Shards sizes
	// the array, so with the default there is a line per P. The pool mints
	// a token only when every existing one is borrowed, which takes more
	// callers mid-call at once than there are slots (see enter); two tokens
	// on one slot still count exactly, only slower.
	slots  []slot
	tokens sync.Pool
	minted atomic.Uint32

	// Pipeline counters; bumped off the hot path (seal/round), so plain
	// atomics suffice. roundFiltered and roundApplied are what apply rounds
	// did with the updates that left as buffered.
	epochs        atomic.Uint64
	rounds        atomic.Uint64
	coalesced     atomic.Uint64
	roundFiltered atomic.Uint64
	roundApplied  atomic.Uint64
}

// New wraps a core.Incremental in a Stream. The Incremental must not be
// used directly while the Stream is live.
func New(inc *core.Incremental, opt Options) *Stream {
	opt = opt.withDefaults()
	s := &Stream{inc: inc, stype: inc.Type(), opt: opt}
	s.quiet = sync.NewCond(&s.qmu)
	s.closeDone = make(chan struct{})
	s.slots = make([]slot, opt.Shards)
	s.tokens.New = func() any {
		return &s.slots[(s.minted.Add(1)-1)%uint32(len(s.slots))]
	}
	if s.stype != core.TypeAsync {
		s.shards = make([]shard, opt.Shards)
		for i := range s.shards {
			s.shards[i].buf = make([]graph.Edge, 0, opt.EpochSize)
		}
		s.spare.New = func() any { return make([]graph.Edge, 0, opt.EpochSize) }
	}
	return s
}

// Type reports the scheduling discipline the stream runs under.
func (s *Stream) Type() core.StreamType { return s.stype }

// Len returns the number of vertices.
func (s *Stream) Len() int { return s.inc.Len() }

// tally sums the slots, every left word before any entered word. Words
// only grow and an update bumps entered before its left word, so at any
// instant between the two passes Σleft(read) ≤ Σleft ≤ Σentered ≤
// Σentered(read): a tally with inFlight() == 0 proves the gate was empty
// at that instant.
func (s *Stream) tally() (t tally) {
	for i := range s.slots {
		sl := &s.slots[i]
		for k := range sl.left {
			t.left[k] += sl.left[k].Load()
		}
	}
	for i := range s.slots {
		t.entered += s.slots[i].entered.Load()
	}
	return t
}

// Stats returns a snapshot of the operation counters. Counters are read
// individually, so a snapshot taken mid-traffic is approximate; the round
// counters are read first, so Filtered + Applied never exceeds Updates.
func (s *Stream) Stats() Stats {
	st := Stats{
		Filtered:  s.roundFiltered.Load(),
		Applied:   s.roundApplied.Load(),
		Epochs:    s.epochs.Load(),
		Rounds:    s.rounds.Load(),
		Coalesced: s.coalesced.Load(),
	}
	t := s.tally()
	st.Updates = t.left[exitFiltered] + t.left[exitApplied] + t.left[exitBuffered]
	st.Filtered += t.left[exitFiltered]
	st.Applied += t.left[exitApplied]
	return st
}

// enter counts n updates into the close gate on a borrowed slot. A Type i
// call keeps the slot until it leaves; it never parks in between. A
// buffered call can park on the shard and round locks, and a token parked
// with it is missing from its P's fast path, so the P's next callers take
// the pool's slow path and mint tokens onto slots other Ps are using. Such
// a call hands the token straight back (nil) and leaves on whichever slot
// it borrows then: the sums do not care which slot a word was counted on.
func (s *Stream) enter(n uint64) *slot {
	sl := s.tokens.Get().(*slot)
	sl.entered.Add(n)
	if s.stype != core.TypeAsync {
		s.tokens.Put(sl)
		return nil
	}
	return sl
}

// held returns sl, or a freshly borrowed slot if enter handed sl back.
func (s *Stream) held(sl *slot) *slot {
	if sl == nil {
		return s.tokens.Get().(*slot)
	}
	return sl
}

// Update accepts the edge insertion (u, v). Vertices must be < Len(). After
// Close it returns ErrClosed instead of mutating sealed state.
func (s *Stream) Update(u, v uint32) error {
	if s.closed.Load() {
		return ErrClosed
	}
	sl := s.enter(1)
	// Deferred so that a call that panics still leaves the gate and Close
	// cannot wedge behind it.
	how := exitAborted
	defer func() {
		sl = s.held(sl)
		sl.left[how].Add(1)
		s.tokens.Put(sl)
	}()
	// Re-check after entering: a Close that ran between the first check and
	// the entry observes the entry (sequentially consistent atomics) and
	// waits us out; one that ran before the entry is caught here, so no
	// update slips past a completed Close.
	if s.closed.Load() {
		return ErrClosed
	}
	how = s.update(u, v)
	return nil
}

// UpdateBatch accepts a batch of edge insertions under one close-gate
// entry: the serving path's amortized feed (one gate check and one
// accounting publish per WAL record instead of per edge). Vertices must be
// < Len().
func (s *Stream) UpdateBatch(edges []graph.Edge) error {
	if len(edges) == 0 {
		return nil
	}
	if s.closed.Load() {
		return ErrClosed
	}
	sl := s.enter(uint64(len(edges)))
	var left [numExits]uint64
	defer func() {
		sl = s.held(sl)
		left[exitAborted] = uint64(len(edges)) - left[exitFiltered] - left[exitApplied] - left[exitBuffered]
		for how, n := range left {
			if n > 0 {
				sl.left[how].Add(n)
			}
		}
		s.tokens.Put(sl)
	}()
	if s.closed.Load() {
		return ErrClosed
	}
	for _, e := range edges {
		left[s.update(e.U, e.V)]++
	}
	return nil
}

// update is the gate-free, accounting-free insertion hot path shared by
// Update and UpdateBatch; it reports how the update left.
func (s *Stream) update(u, v uint32) exit {
	if u == v {
		return exitFiltered
	}
	if s.stype == core.TypeAsync {
		// Fully concurrent: one union in place, which reports whether it
		// merged anything.
		if s.inc.Update(u, v) {
			return exitApplied
		}
		return exitFiltered
	}
	s.enqueue(graph.Edge{U: u, V: v})
	return exitBuffered
}

// Connected answers a connectivity query against every applied round (and,
// for Type i, every completed Update). It is wait-free for Type i and ii;
// for Type iii it waits out any in-flight apply phase. After Close it
// returns ErrClosed.
func (s *Stream) Connected(u, v uint32) (bool, error) {
	if s.closed.Load() {
		return false, ErrClosed
	}
	if s.stype == core.TypePhased {
		s.phase.RLock()
		same := s.inc.Connected(u, v)
		s.phase.RUnlock()
		return same, nil
	}
	return s.inc.Connected(u, v), nil
}

// Close makes the stream's state final: it rejects new updates and queries
// (ErrClosed), waits out in-flight Update calls, and applies every buffered
// epoch, so when Close returns the structure reflects exactly the updates
// that were accepted — the contract a snapshotting server relies on. Close
// is idempotent and safe to call concurrently: every call returns after the
// first one's drain completes. The read-only snapshot surface (Labels,
// NumComponents, Stats, Sync) keeps working on a closed stream.
func (s *Stream) Close() error {
	if s.closed.Swap(true) {
		<-s.closeDone
		return nil
	}
	// Wait for gate-passed updates to finish. Every such call's entry is
	// sequentially ordered before our Swap, so an empty gate (see tally)
	// means every straggler has both finished its mutation and left.
	for spins := 0; s.tally().inFlight() != 0; spins++ {
		if spins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
	s.Sync()
	close(s.closeDone)
	return nil
}

// PendingEpochs reports the number of sealed epochs not yet fully applied
// (queued plus mid-round) — the serving layer's backpressure signal. It is
// lock-free and approximate under traffic.
func (s *Stream) PendingEpochs() int { return int(s.inflight.Load()) }

// pick selects e's shard by a stateless multiplicative hash of the edge.
// The previous design bumped one global round-robin cursor on every
// buffered update, serializing all producers on a single contended cache
// line. Hashing needs no shared state at all and spreads any
// non-degenerate stream evenly; it also keeps duplicate submissions of one
// edge in one shard.
func (s *Stream) pick(e graph.Edge) *shard {
	h := (uint64(e.U)<<32 | uint64(e.V)) * 0x9e3779b97f4a7c15
	return &s.shards[(h>>33)%uint64(len(s.shards))]
}

// enqueue appends e to its hash shard, sealing the epoch if this append
// filled it, and then drains the apply queue. The appender pays for the
// round, which backpressures producers against the structure.
func (s *Stream) enqueue(e graph.Edge) {
	sh := s.pick(e)
	sealed := false
	sh.mu.Lock()
	sh.buf = append(sh.buf, e)
	if len(sh.buf) >= s.opt.EpochSize {
		s.seal(sh.buf)
		sh.buf = s.spare.Get().([]graph.Edge)[:0]
		sealed = true
	}
	sh.mu.Unlock()
	if sealed {
		s.drain()
	}
}

// seal registers batch as one in-flight epoch and pushes it onto the apply
// queue. It must be called with the owning shard's mutex held: the queue
// registration has to happen before the buffer can be observed empty, or a
// concurrent Sync could find nothing buffered, nothing in flight, and
// return while batch is still unapplied — the visibility race this
// pipeline exists to close.
func (s *Stream) seal(batch []graph.Edge) {
	s.qmu.Lock()
	s.queue = append(s.queue, batch)
	s.inflight.Add(1)
	s.qmu.Unlock()
	s.epochs.Add(1)
}

// pop removes the next coalesced group from the apply queue: queued epochs
// in seal order, stopping before the group would exceed coalesceFactor
// epochs' worth of updates (but always taking at least one epoch).
func (s *Stream) pop() (group [][]graph.Edge, total int) {
	bound := coalesceFactor * s.opt.EpochSize
	s.qmu.Lock()
	n := len(s.queue)
	i := 0
	for i < n {
		if i > 0 && total+len(s.queue[i]) > bound {
			break
		}
		total += len(s.queue[i])
		i++
	}
	group = s.queue[:i:i]
	if i == n {
		s.queue = nil
	} else {
		s.queue = append([][]graph.Edge(nil), s.queue[i:]...)
	}
	s.qmu.Unlock()
	return group, total
}

// retire marks k epochs fully applied, waking Sync waiters at zero.
func (s *Stream) retire(k int) {
	s.qmu.Lock()
	if s.inflight.Add(int64(-k)) == 0 {
		s.quiet.Broadcast()
	}
	s.qmu.Unlock()
}

// drain runs apply rounds until the sealed-epoch queue is empty. Each
// round holds roundMu, pops everything the coalesce bound allows, and
// applies it as one batch — epochs sealed by other producers while this
// goroutine ran a round ride along in the next round instead of paying
// their own (the sealers block on roundMu, find the queue already empty,
// and return). For Type iii the phase write lock — which blocks every
// query — is taken only after the pop produced work, for exactly the span
// of the apply. Epochs popped by another goroutine are that goroutine's to
// finish; Sync waits them out via the in-flight count.
func (s *Stream) drain() {
	for {
		s.roundMu.Lock()
		group, total := s.pop()
		if len(group) == 0 {
			s.roundMu.Unlock()
			return
		}
		batch := s.coalesce(group, total)
		if s.stype == core.TypePhased {
			s.phase.Lock()
			s.applyLocked(batch)
			s.phase.Unlock()
		} else { // TypeSynchronous: queries are wait-free, no barrier needed
			s.applyLocked(batch)
		}
		s.rounds.Add(1)
		if len(group) > 1 {
			s.coalesced.Add(uint64(len(group) - 1))
		}
		s.retire(len(group))
		for _, ep := range group {
			s.spare.Put(ep[:0])
		}
		s.roundMu.Unlock()
	}
}

// coalesce concatenates a popped group into one batch. A single epoch is
// applied in place; larger groups copy into the round scratch buffer,
// which the caller owns by holding roundMu.
func (s *Stream) coalesce(group [][]graph.Edge, total int) []graph.Edge {
	if len(group) == 1 {
		return group[0]
	}
	batch := s.scratch[:0]
	if cap(batch) < total {
		batch = make([]graph.Edge, 0, total)
	}
	for _, ep := range group {
		batch = append(batch, ep...)
	}
	s.scratch = batch
	return batch
}

// applyLocked pre-filters and applies one coalesced batch; the caller
// holds roundMu (and, for Type iii, the phase write lock).
func (s *Stream) applyLocked(batch []graph.Edge) {
	batch = s.prefilter(batch)
	s.inc.ApplyBatch(batch)
	s.roundApplied.Add(uint64(len(batch)))
}

// prefilter drops edges whose endpoints already share a component,
// compacting batch in place. Probes are read-only and run in parallel;
// dropped slots are marked as self-loops and squeezed out sequentially.
func (s *Stream) prefilter(batch []graph.Edge) []graph.Edge {
	parallel.ForGrained(len(batch), 512, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := batch[i]
			if s.inc.Probe(e.U, e.V, probeBudget) {
				batch[i].V = batch[i].U
			}
		}
	})
	w := 0
	for i := range batch {
		if batch[i].U != batch[i].V {
			batch[w] = batch[i]
			w++
		}
	}
	s.roundFiltered.Add(uint64(len(batch) - w))
	return batch[:w]
}

// Sync applies every buffered update and waits for in-flight epochs, so
// that every Update accepted before Sync began is visible to queries after
// Sync returns. It is safe to call concurrently with traffic; epochs
// sealed by concurrent producers while Sync runs are waited for too, so
// under sustained saturation Sync reflects a slightly later point in the
// stream.
func (s *Stream) Sync() {
	if s.stype == core.TypeAsync {
		return
	}
	// Seal every shard's residual buffer onto the apply queue. Sealing
	// under each shard's lock registers the partial epoch in flight before
	// the buffer empties, so a concurrent Sync that observes the empty
	// buffer also observes the epoch and waits for it.
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if len(sh.buf) > 0 {
			s.seal(sh.buf)
			sh.buf = s.spare.Get().([]graph.Edge)[:0]
		}
		sh.mu.Unlock()
	}
	// The residual epochs (one per non-empty shard) coalesce into rounds
	// like any others.
	s.drain()
	// Wait out epochs another goroutine popped but has not finished
	// applying.
	s.qmu.Lock()
	for s.inflight.Load() > 0 {
		s.quiet.Wait()
	}
	s.qmu.Unlock()
}

// quiesce takes the round mutex and returns the release: holding it keeps
// buffered-type rounds out of the structure while a snapshot is read
// (queries keep running — snapshots chase roots read-only). For Type i
// there is no exclusion to take: updates cannot be stalled without
// blocking producers, so Type i snapshots are monotone-consistent rather
// than quiescent (see Labels).
func (s *Stream) quiesce() (release func()) {
	if s.stype == core.TypeAsync {
		return func() {}
	}
	s.roundMu.Lock()
	return s.roundMu.Unlock
}

// Labels syncs and returns a connectivity labeling snapshot.
//
// For buffered stream types the snapshot is quiescent: Sync flushes every
// accepted update and the round mutex is held while the labeling is
// read, so it reflects exactly the accepted updates. For Type i there is
// no quiescence point short of stalling every producer; instead the
// labeling is a monotone-consistent snapshot taken by read-only root
// chasing (core.Incremental.Labels): any two vertices it labels equal are
// truly connected — the snapshot never invents connectivity. It can,
// however, label two connected vertices differently while unions race the
// scan (even a union elsewhere can re-hook their shared root mid-scan),
// so label inequality carries no guarantee until the stream quiesces.
func (s *Stream) Labels() []uint32 {
	s.Sync()
	defer s.quiesce()()
	return s.inc.Labels()
}

// NumComponents syncs and counts the current components, under the same
// snapshot semantics as Labels.
func (s *Stream) NumComponents() int {
	s.Sync()
	defer s.quiesce()()
	return s.inc.NumComponents()
}

// Query returns a composable query engine over the stream's live spanning
// forest: path, component-size, histogram, label, and forest queries that
// stay current as the stream ingests (DESIGN.md §12). Capability gating
// happens here, at construction: capture follows the stream type, so Type
// i and ii streams always have a forest, and a Type iii stream (Rem +
// SpliceAtomic, compiled without witness support) returns the
// ErrUnsupported-wrapping verdict up front, mirroring Compile's
// fail-at-compile contract — so a non-nil engine never discovers mid-query
// that the forest does not exist.
//
// Engine answers reflect every applied round, the same visibility contract
// as Connected; call Sync first for a point-in-time barrier. Engines are
// independent cursors over one shared capture, so many may coexist, and
// every engine method returns ErrClosed once the stream is closed.
func (s *Stream) Query() (*query.Engine, error) {
	if err := s.inc.ForestErr(); err != nil {
		return nil, err
	}
	return query.New(streamSource{s}), nil
}

// streamSource adapts a Stream to query.Source.
type streamSource struct{ s *Stream }

func (src streamSource) NumVertices() int { return src.s.inc.Len() }

func (src streamSource) ForestPull(cursor int, dst []graph.Edge) (int, []graph.Edge) {
	return src.s.inc.ForestPull(cursor, dst)
}

func (src streamSource) Err() error {
	if src.s.closed.Load() {
		return ErrClosed
	}
	return nil
}

// ForestLen reports the number of spanning-forest edges captured so far
// (always 0 for Type iii) — the serving layer's forest-size gauge.
func (s *Stream) ForestLen() int { return s.inc.ForestLen() }

// String describes the stream's configuration.
func (s *Stream) String() string {
	return fmt.Sprintf("ingest.Stream{n=%d %v shards=%d epoch=%d}",
		s.inc.Len(), s.stype, s.opt.Shards, s.opt.EpochSize)
}
