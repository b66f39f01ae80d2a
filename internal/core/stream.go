package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"connectit/internal/concurrent"
	"connectit/internal/graph"
	"connectit/internal/liutarjan"
	"connectit/internal/parallel"
	"connectit/internal/query"
	"connectit/internal/shiloachvishkin"
	"connectit/internal/unionfind"
)

// StreamType classifies how a streaming algorithm processes a batch (§3.5).
type StreamType int

// The streaming algorithm types of §3.5.
const (
	// TypeAsync (Type i): union-find variants other than Rem+SpliceAtomic.
	// Updates and queries in a batch run fully concurrently; all operations
	// are linearizable and finds are wait-free.
	TypeAsync StreamType = iota
	// TypeSynchronous (Type ii): Shiloach-Vishkin and RootUp Liu-Tarjan.
	// Updates are applied synchronously in rounds; queries are wait-free.
	TypeSynchronous
	// TypePhased (Type iii): Rem's algorithms with SpliceAtomic. Updates
	// and queries are phase-separated by a barrier (Theorem 3).
	TypePhased
)

func (t StreamType) String() string {
	switch t {
	case TypeAsync:
		return "type-i-async"
	case TypeSynchronous:
		return "type-ii-synchronous"
	case TypePhased:
		return "type-iii-phased"
	}
	return fmt.Sprintf("StreamType(%d)", int(t))
}

// ErrStreamClosed is returned by Update, UpdateBatch, ProcessBatch,
// Connected, and every query issued through a Query engine after Close: a
// closed stream's state is final, so mutations are rejected and queries
// fail fast instead of answering from a structure the caller believes
// sealed. The canonical list of read-only survivors — the snapshot surface
// a server needs after Close — is documented once, on
// connectit.ErrStreamClosed (stream.go).
var ErrStreamClosed = errors.New("connectit: stream closed")

// StreamOptions tunes a Stream. The zero value selects the defaults.
type StreamOptions struct {
	// Shards is the number of update buffers a buffered (Type ii/iii)
	// stream spreads its updates over. Default: GOMAXPROCS. Type i streams
	// never buffer and ignore it.
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
	// slotBits sizes the close gate's accounting array at 64 lines, as
	// unionfind.Stats is sized: more lines than typical core counts, so
	// distinct producers seldom hash onto one.
	slotBits = 6
)

func (o StreamOptions) withDefaults() StreamOptions {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.EpochSize <= 0 {
		o.EpochSize = defaultEpochSize
	}
	return o
}

// StreamStats is a point-in-time snapshot of a Stream's operation counters.
// It is exact once every update call has returned.
type StreamStats struct {
	// Updates is the number of accepted updates (one per Update call, one
	// per UpdateBatch or ProcessBatch edge), counted as each is buffered,
	// applied in place or filtered.
	Updates uint64
	// Filtered is the number of updates that joined nothing: self-loops,
	// Type i updates and unions that found both endpoints in one set, and
	// edges a buffered round's pre-filter probe found intra-component.
	Filtered uint64
	// Applied is the number of updates that got past the filter. For Type
	// i it counts the unions that merged two components, so Applied equals
	// Len() − NumComponents() at quiescence; for buffered types it counts
	// the edges handed to the apply path, an upper bound on the merges.
	Applied uint64
	// Epochs is the number of sealed epochs pushed onto the apply queue
	// (Type ii/iii), including partial epochs drained by Sync, plus one per
	// ProcessBatch round.
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
	// won the gate re-check, or the call panicked.
	exitAborted exit = iota
	// exitFiltered: a self-loop, or a Type i union that found the
	// endpoints already joined.
	exitFiltered
	// exitApplied: a Type i union that merged two components.
	exitApplied
	// exitBuffered: handed to a buffered (Type ii/iii) round, which counts
	// it filtered or applied.
	exitBuffered
	numExits
)

// slot is one producer's accounting line: every word the Update hot path
// writes, on one cache line. A call picks its line by a hash of its
// goroutine's stack address (see line), so in steady state each line has
// one writing goroutine and its read-modify-writes stay in one core's
// cache: one (joined) for a Type i edge whose endpoints are already in one
// set, two (entered, then one left word) for an update that passes the
// close gate. Choosing the line by a hash of the edge instead sends every
// producer to every line; that bouncing, not the union, was 70 % of the
// 90/10 mix (DESIGN.md §9 "Per-operation accounting").
//
// All words only grow. Updates past the gate and not yet out are
// Σentered − Σleft over the slots; StreamStats.Updates is Σjoined plus
// Σleft without the aborted word. Neither is stored.
type slot struct {
	entered atomic.Uint64
	left    [numExits]atomic.Uint64
	// joined counts the Type i Updates that found their endpoints in one
	// set before the gate and returned without entering it.
	joined atomic.Uint64
	_      [64 - 8*(2+numExits)]byte
}

// tally is the slot words summed.
type tally struct {
	entered uint64
	left    [numExits]uint64
	joined  uint64
}

// inFlight is the number of updates past the close gate that have not left.
func (t tally) inFlight() uint64 {
	n := t.entered
	for _, l := range t.left {
		n -= l
	}
	return n
}

// Stream maintains connectivity of a growing graph under edge insertions
// mixed with connectivity queries — the parallel batch-incremental setting
// of §3.5 — from any number of goroutines at once. Build one with
// Compiled.NewStream. ProcessBatch is the paper's per-batch call
// (Algorithm 3); Update, UpdateBatch and Connected are its serving-path
// form, scheduled by the compiled algorithm's stream type (DESIGN.md §9).
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
//     shard-epoch is the main Type ii throughput lever.
//   - Type iii (Rem + SpliceAtomic): as Type ii, but the round additionally
//     takes the write side of a phase lock whose read side every query
//     holds, realizing Theorem 3's update/query phase separation — held
//     once per coalesced group, not once per epoch.
//
// Intra-component edges are filtered before they link anything. A Type i
// Update asks the union-find whether the endpoints are already joined, by
// the walk the union would start with, before it enters the close gate: a
// joined edge is counted filtered with one add and returns, and only an
// edge that can link pays the gate and the union. Before a
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
//
// Every vertex passed in must be < Len(); an out-of-range vertex panics in
// the calling goroutine, before it can reach a buffer, a lock or a pool
// worker.
type Stream struct {
	stype StreamType
	n     int
	opt   StreamOptions

	// The connectivity state, set by the family's NewStream hook: the DSU
	// for Types i and iii, or for Type ii the parent array plus the
	// family's witness-capturing edge runner (svForest or ltForest), whose
	// round-reused closures and scratch survive across rounds.
	dsu      *unionfind.DSU
	parent   []uint32
	svForest *shiloachvishkin.EdgeForestRunner
	ltForest *liutarjan.ForestEdgeRunner

	// Streaming spanning-forest capture (DESIGN.md §12), decided by the
	// stream type. Type i unions append their witness edges to the
	// union-find witness log under the existing atomic discipline; Type ii
	// rounds merge the runner's captured edges into fbuf at the round
	// barrier. Type iii never captures: forestErr is the compile-time
	// ForestSupport verdict.
	forestErr error
	fmu       sync.Mutex
	fbuf      []graph.Edge // merged Type ii forest, guarded by fmu
	fscratch  []graph.Edge // per-round capture scratch (capacity retained)

	shards []shard
	spare  sync.Pool // recycled epoch buffers

	// roundMu serializes apply rounds (and quiescent snapshots): it is
	// what concurrently-sealing producers block on, so their epochs merge
	// into the winner's next round. phase additionally separates Type iii
	// rounds (write side) from queries (read side); it is taken inside
	// roundMu only once a round has a non-empty group in hand, so queries
	// never stall behind a writer acquisition that would find nothing to
	// apply. scratch is the round batch buffer, owned by the roundMu
	// holder.
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

	// Per-operation accounting (see slot): 1<<slotBits lines, picked by
	// enter. Two callers hashed onto one line still count exactly, only
	// slower.
	slots []slot

	// Pipeline counters; bumped off the hot path (seal/round), so plain
	// atomics suffice. roundFiltered and roundApplied are what apply rounds
	// did with the updates that left as buffered.
	epochs        atomic.Uint64
	rounds        atomic.Uint64
	coalesced     atomic.Uint64
	roundFiltered atomic.Uint64
	roundApplied  atomic.Uint64
}

// NewStream opens a stream over n initially isolated vertices running the
// compiled finish algorithm (§3.5). Combinations that cannot stream return
// the ErrUnsupported error captured at compile time.
//
// Witness capture follows the stream type (DESIGN.md §12): Type i and
// Type ii streams deposit every accepted union's witness edge, feeding the
// live forest behind Stream.Query, and a Type iii stream — the one
// streaming combination without forest support — carries the compile-time
// verdict, which Query returns.
func (c *Compiled) NewStream(n int, opt StreamOptions) (*Stream, error) {
	if c.streamErr != nil {
		return nil, c.streamErr
	}
	opt = opt.withDefaults()
	s := &Stream{stype: c.streamType, n: n, opt: opt, forestErr: c.forestErr}
	c.family.NewStream(s, c.cfg)
	s.quiet = sync.NewCond(&s.qmu)
	s.closeDone = make(chan struct{})
	s.slots = make([]slot, 1<<slotBits)
	if s.stype != TypeAsync {
		s.shards = make([]shard, opt.Shards)
		for i := range s.shards {
			s.shards[i].buf = make([]graph.Edge, 0, opt.EpochSize)
		}
		s.spare.New = func() any { return make([]graph.Edge, 0, opt.EpochSize) }
	}
	return s, nil
}

// Type reports the scheduling discipline the stream runs under.
func (s *Stream) Type() StreamType { return s.stype }

// Len returns the number of vertices.
func (s *Stream) Len() int { return s.n }

// check panics unless u and v are vertices of the stream. Every entry point
// calls it in the caller's goroutine before buffering, locking or fanning
// out, so a bad vertex can neither wedge a lock nor kill the process from a
// pool worker.
func (s *Stream) check(u, v uint32) {
	if int(max(u, v)) >= s.n {
		panic(rangeError{u, v, s.n})
	}
}

// rangeError is the panic value of an out-of-range vertex. It formats
// lazily, which keeps check cheap enough to inline into the hot paths.
type rangeError struct {
	u, v uint32
	n    int
}

func (e rangeError) Error() string {
	return fmt.Sprintf("connectit: edge (%d, %d) out of range for a %d-vertex stream", e.u, e.v, e.n)
}

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
		t.joined += sl.joined.Load()
	}
	for i := range s.slots {
		t.entered += s.slots[i].entered.Load()
	}
	return t
}

// Stats returns a snapshot of the operation counters. Counters are read
// individually, so a snapshot taken mid-traffic is approximate; the round
// counters are read first, so Filtered + Applied never exceeds Updates.
// Once every update call has returned the snapshot is exact. Close waits
// out only the calls that can change the structure, so a Type i Update
// that found its endpoints joined may still be on its way out, and
// uncounted, when Close returns.
func (s *Stream) Stats() StreamStats {
	st := StreamStats{
		Filtered:  s.roundFiltered.Load(),
		Applied:   s.roundApplied.Load(),
		Epochs:    s.epochs.Load(),
		Rounds:    s.rounds.Load(),
		Coalesced: s.coalesced.Load(),
	}
	t := s.tally()
	st.Updates = t.joined + t.left[exitFiltered] + t.left[exitApplied] + t.left[exitBuffered]
	st.Filtered += t.joined + t.left[exitFiltered]
	st.Applied += t.left[exitApplied]
	return st
}

// line is the calling goroutine's accounting line: a hash of its stack
// address (concurrent.StackHint), masked by the array's size, so picking
// it costs no shared write. A goroutine whose stack moves may pick another
// line on its next call, which costs nothing: the sums do not care which
// line a word was counted on.
func (s *Stream) line() *slot {
	return &s.slots[concurrent.StackHint()>>(64-slotBits)&uint64(len(s.slots)-1)]
}

// enter counts n updates into the close gate on the calling goroutine's
// line and returns it; the call books its exits on that same line.
func (s *Stream) enter(n uint64) *slot {
	sl := s.line()
	sl.entered.Add(n)
	return sl
}

// leave books how the n updates a batch call entered on sl left: the
// counts in left, and aborted for the rest. It is deferred, so a call that
// panics still leaves the gate and Close cannot wedge behind it.
func (s *Stream) leave(sl *slot, n uint64, left *[numExits]uint64) {
	left[exitAborted] = n - left[exitFiltered] - left[exitApplied] - left[exitBuffered]
	for how, k := range left {
		if k > 0 {
			sl.left[how].Add(k)
		}
	}
}

// Update accepts the edge insertion (u, v). Vertices must be < Len(). After
// Close it returns ErrStreamClosed instead of mutating sealed state.
func (s *Stream) Update(u, v uint32) error {
	if s.closed.Load() {
		return ErrStreamClosed
	}
	if s.stype == TypeAsync {
		// An edge whose endpoints are already joined changes no set, so it
		// skips the gate: it is linearized before any Close it races, and
		// Close has nothing of it to wait out. Joined is the walk the union
		// would start with, and a DSU with Stats answers false at once.
		s.check(u, v)
		if u == v || s.dsu.Joined(u, v) {
			s.line().joined.Add(1)
			return nil
		}
	}
	sl := s.enter(1)
	// Deferred so that a call that panics still leaves the gate and Close
	// cannot wedge behind it.
	how := exitAborted
	defer func() { sl.left[how].Add(1) }()
	// Re-check after entering: a Close that ran between the first check and
	// the entry observes the entry (sequentially consistent atomics) and
	// waits us out; one that ran before the entry is caught here, so no
	// update slips past a completed Close.
	if s.closed.Load() {
		return ErrStreamClosed
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
		return ErrStreamClosed
	}
	var left [numExits]uint64
	defer s.leave(s.enter(uint64(len(edges))), uint64(len(edges)), &left)
	if s.closed.Load() {
		return ErrStreamClosed
	}
	for _, e := range edges {
		left[s.update(e.U, e.V)]++
	}
	return nil
}

// update is the gate-free, accounting-free insertion hot path shared by
// Update and UpdateBatch; it reports how the update left.
func (s *Stream) update(u, v uint32) exit {
	s.check(u, v)
	if u == v {
		return exitFiltered
	}
	if s.stype == TypeAsync {
		// Fully concurrent: one union in place, which reports whether it
		// merged anything.
		if s.dsu.Union(u, v) {
			return exitApplied
		}
		return exitFiltered
	}
	s.enqueue(graph.Edge{U: u, V: v})
	return exitBuffered
}

// ProcessBatch is the paper's batch-incremental call (Algorithm 3): it
// accepts a batch of edge insertions and answers the batch's connectivity
// queries, one result per query. Type i runs the unions and the queries
// together, fanned out over the pool, so a query may or may not see an
// update of its own batch. Types ii and iii apply the batch as one round —
// pre-filter included, under the stream type's exclusion — and then answer
// the queries, which see every update of the batch. updates is never
// modified. The batch passes the close gate and counts in Stats as
// UpdateBatch's does. Vertices must be < Len().
func (s *Stream) ProcessBatch(updates []graph.Edge, queries [][2]uint32) ([]bool, error) {
	for _, e := range updates {
		s.check(e.U, e.V)
	}
	for _, q := range queries {
		s.check(q[0], q[1])
	}
	if s.closed.Load() {
		return nil, ErrStreamClosed
	}
	m := uint64(len(updates))
	var left [numExits]uint64
	defer s.leave(s.enter(m), m, &left)
	if s.closed.Load() {
		return nil, ErrStreamClosed
	}
	results := make([]bool, len(queries))
	if s.stype == TypeAsync {
		var merged atomic.Uint64
		parallel.ForGrained(len(updates)+len(queries), 256, func(lo, hi int) {
			var k uint64
			for i := lo; i < hi; i++ {
				if i < len(updates) {
					if s.dsu.Union(updates[i].U, updates[i].V) {
						k++
					}
				} else {
					q := queries[i-len(updates)]
					results[i-len(updates)] = s.dsu.SameSet(q[0], q[1])
				}
			}
			merged.Add(k)
		})
		left[exitApplied] = merged.Load()
		left[exitFiltered] = m - left[exitApplied]
		return results, nil
	}
	s.roundMu.Lock()
	defer s.roundMu.Unlock()
	if m > 0 {
		// The round compacts its batch in place, so the caller's slice is
		// copied into the round scratch first.
		s.scratch = append(s.scratch[:0], updates...)
		s.epochs.Add(1)
		s.round(s.scratch)
		left[exitBuffered] = m
	}
	// Holding roundMu keeps every other round out, so the queries need no
	// phase lock even for Type iii.
	parallel.ForGrained(len(queries), 256, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			results[i] = s.connected(queries[i][0], queries[i][1])
		}
	})
	return results, nil
}

// Connected answers a connectivity query against every applied round (and,
// for Type i, every completed Update). It is wait-free for Type i and ii;
// for Type iii it waits out any in-flight apply phase. After Close it
// returns ErrStreamClosed.
func (s *Stream) Connected(u, v uint32) (bool, error) {
	if s.closed.Load() {
		return false, ErrStreamClosed
	}
	s.check(u, v)
	if s.stype == TypePhased {
		s.phase.RLock()
		same := s.dsu.SameSet(u, v)
		s.phase.RUnlock()
		return same, nil
	}
	return s.connected(u, v), nil
}

// connected is the lock-free query: a union-find find for Types i and iii
// (the Type iii caller owns the phase barrier), and for Type ii a wait-free
// chase of the parent array the rounds publish atomically.
func (s *Stream) connected(u, v uint32) bool {
	if s.dsu != nil {
		return s.dsu.SameSet(u, v)
	}
	ru, rv := chaseRoot(s.parent, u), chaseRoot(s.parent, v)
	for ru != rv {
		pru := atomic.LoadUint32(&s.parent[ru])
		prv := atomic.LoadUint32(&s.parent[rv])
		if pru == ru && prv == rv {
			return false
		}
		ru, rv = chaseRoot(s.parent, pru), chaseRoot(s.parent, prv)
	}
	return true
}

func chaseRoot(parent []uint32, x uint32) uint32 {
	for {
		p := atomic.LoadUint32(&parent[x])
		if p == x {
			return x
		}
		x = p
	}
}

// parents is the live parent array every read-only chase walks.
func (s *Stream) parents() []uint32 {
	if s.dsu != nil {
		return s.dsu.Parents()
	}
	return s.parent
}

// Close makes the stream's state final: it rejects new updates and queries
// (ErrStreamClosed), waits out every in-flight update call that can change
// the structure, and applies every buffered epoch, so when Close returns
// the structure reflects exactly the updates that were accepted — the
// contract a snapshotting server relies on. A Type i Update whose
// endpoints were already joined changes nothing and is not waited for, so
// Stats is exact once every call has returned, not necessarily when Close
// does. Close is idempotent and safe to call concurrently: every call returns
// after the first one's drain completes. The read-only snapshot surface
// (Labels, NumComponents, Stats, ForestLen, Sync) keeps working on a
// closed stream.
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
// and return). Epochs popped by another goroutine are that goroutine's to
// finish; Sync waits them out via the in-flight count.
func (s *Stream) drain() {
	for {
		s.roundMu.Lock()
		group, total := s.pop()
		if len(group) == 0 {
			s.roundMu.Unlock()
			return
		}
		s.round(s.coalesce(group, total))
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

// round pre-filters and applies one batch, compacting it in place, as one
// apply round; the caller holds roundMu. For Type iii the phase write lock
// — which blocks every query — is held for exactly the span of the round;
// Type ii queries are wait-free and need no barrier.
func (s *Stream) round(batch []graph.Edge) {
	if s.stype == TypePhased {
		s.phase.Lock()
		defer s.phase.Unlock()
	}
	batch = s.prefilter(batch)
	s.apply(batch)
	s.roundApplied.Add(uint64(len(batch)))
	s.rounds.Add(1)
}

// prefilter drops edges whose endpoints already share a component,
// compacting batch in place. Probes are read-only, bounded
// (unionfind.ProbeSame) and run in parallel, safe against the concurrent
// queries of every stream type; dropped slots are marked as self-loops and
// squeezed out sequentially.
func (s *Stream) prefilter(batch []graph.Edge) []graph.Edge {
	parent := s.parents()
	parallel.ForGrained(len(batch), 512, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := batch[i]
			if unionfind.ProbeSame(parent, e.U, e.V, probeBudget) {
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

// apply is a buffered round's union loop. Type iii runs one concurrent
// union per edge; Type ii runs the family's witness-capturing edge runner
// over the batch, publishing parent atomically for the wait-free queries
// chasing it, and merges the round's forest edges into fbuf at the round
// barrier — rounds are serialized by roundMu, so the only synchronization
// added is the buffer mutex taken once per round, off the per-edge path.
//
// Duplicate edges, either orientation of one edge, and self-loops are
// harmless: unions are idempotent, so a repeat finds its endpoints already
// joined. Nothing is deduplicated first (the paper's Algorithm 3
// semisort), because the pre-filter already drops 58 % of the first 1 Mi
// updates and 90 % of all 5 Mi of a shuffled RMAT(19) stream, and across
// 60 such streams at 2 and 8 producers, some sending every edge three
// times, a sampling duplicate-rate estimator found 1 batch worth sorting
// under the default coalesce bound.
func (s *Stream) apply(batch []graph.Edge) {
	if len(batch) == 0 {
		return
	}
	if s.dsu != nil {
		parallel.ForGrained(len(batch), 256, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				s.dsu.Union(batch[i].U, batch[i].V)
			}
		})
		return
	}
	var out []graph.Edge
	if s.svForest != nil {
		_, out = s.svForest.Run(batch, s.parent, s.fscratch[:0])
	} else {
		_, out = s.ltForest.Run(batch, s.parent, nil, s.fscratch[:0])
	}
	s.fscratch = out
	if len(out) > 0 {
		s.fmu.Lock()
		s.fbuf = append(s.fbuf, out...)
		s.fmu.Unlock()
	}
}

// Sync applies every buffered update and waits for in-flight epochs, so
// that every Update accepted before Sync began is visible to queries after
// Sync returns. It is safe to call concurrently with traffic; epochs
// sealed by concurrent producers while Sync runs are waited for too, so
// under sustained saturation Sync reflects a slightly later point in the
// stream.
func (s *Stream) Sync() {
	if s.stype == TypeAsync {
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
	if s.stype == TypeAsync {
		return func() {}
	}
	s.roundMu.Lock()
	return s.roundMu.Unlock
}

// Labels syncs and returns a connectivity labeling snapshot, labeling
// every vertex with its current root by read-only parallel root chasing;
// the parent array is never written.
//
// For buffered stream types the snapshot is quiescent: Sync flushes every
// accepted update and the round mutex is held while the labeling is read,
// so it reflects exactly the accepted updates. For Type i there is no
// quiescence point short of stalling every producer; instead the labeling
// is monotone-consistent: equal labels witness real connectivity (a label
// is reached by following live parent pointers, which never leave a
// component), while unequal labels carry no guarantee until the stream
// quiesces — an update racing the scan may or may not be reflected, and a
// racing union can re-hook a component's root between two of its members'
// chases. An earlier snapshot flattened the DSU in place, and a flattening
// store racing a union CAS could overwrite the union's hook — silently
// losing an accepted update forever; chasing without writing removes that
// hazard (TestLabelsMonotoneUnderConcurrentUpdates).
func (s *Stream) Labels() []uint32 {
	s.Sync()
	defer s.quiesce()()
	out := make([]uint32, s.n)
	unionfind.RootsInto(out, s.parents())
	return out
}

// NumComponents syncs and counts the current components, under the same
// snapshot semantics as Labels.
func (s *Stream) NumComponents() int {
	labels := s.Labels()
	return int(parallel.Count(len(labels), func(i int) bool {
		return labels[i] == uint32(i)
	}))
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
// every engine method returns ErrStreamClosed once the stream is closed.
func (s *Stream) Query() (*query.Engine, error) {
	if s.forestErr != nil {
		return nil, s.forestErr
	}
	return query.New(streamSource{s}), nil
}

// streamSource adapts a Stream to query.Source.
type streamSource struct{ s *Stream }

func (src streamSource) NumVertices() int { return src.s.n }

// ForestPull appends the forest edges captured since cursor to dst and
// returns the advanced cursor with the grown slice. Published edges never
// move, so successive pulls observe a strictly growing forest prefix. Type
// i reads the union-find witness log wait-free (stopping at the first
// reserved-but-unpublished slot); Type ii copies the round-merged buffer
// under its mutex.
func (src streamSource) ForestPull(cursor int, dst []graph.Edge) (int, []graph.Edge) {
	s := src.s
	if s.dsu == nil {
		s.fmu.Lock()
		if cursor < len(s.fbuf) {
			dst = append(dst, s.fbuf[cursor:]...)
			cursor = len(s.fbuf)
		}
		s.fmu.Unlock()
		return cursor, dst
	}
	var buf [256]uint64
	for {
		next, k := s.dsu.WitnessLogRead(cursor, buf[:])
		for i := 0; i < k; i++ {
			u, v := concurrent.Unpack(buf[i])
			dst = append(dst, graph.Edge{U: u, V: v})
		}
		cursor = next
		if k < len(buf) {
			return cursor, dst
		}
	}
}

func (src streamSource) Err() error {
	if src.s.closed.Load() {
		return ErrStreamClosed
	}
	return nil
}

// ForestLen reports the number of spanning-forest edges captured so far
// (always 0 for Type iii) — the serving layer's forest-size gauge. It is
// exact at quiescence and a momentary snapshot under concurrent updates
// (Type i counts reserved log slots, so it may briefly exceed what a query
// engine can observe).
func (s *Stream) ForestLen() int {
	switch {
	case s.forestErr != nil:
		return 0
	case s.dsu != nil:
		return s.dsu.WitnessLogLen()
	}
	s.fmu.Lock()
	defer s.fmu.Unlock()
	return len(s.fbuf)
}

// String describes the stream's configuration.
func (s *Stream) String() string {
	return fmt.Sprintf("core.Stream{n=%d %v shards=%d epoch=%d}", s.n, s.stype, s.opt.Shards, s.opt.EpochSize)
}
