package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"connectit/internal/graph"
	"connectit/internal/ingest"
	"connectit/internal/wal"
)

// errBatcherClosed reports a Submit against a drained batcher — only
// reachable during shutdown, and mapped to 503 by the handler.
var errBatcherClosed = errors.New("server: batcher closed")

// maxGroupEdges hard-caps a flush group. While a flush is in progress
// (flushMu held through the fsync) Submits keep landing in the next group,
// and under sustained burst load an uncapped group could outgrow the WAL's
// 16M-edge record bound, failing the whole group and turning valid requests
// into 503s. At the cap, Submit waits for the group to flush and retries
// into its successor. 4M edges leaves room for one more submission on top —
// the JSON path is bounded by its 8 MiB body limit and both binary paths by
// maxRequestEdges — keeping the worst-case group (see maxRequestEdges)
// inside the WAL record bound.
const maxGroupEdges = 1 << 22

// maxRequestEdges caps the *decoded* edge count of one binary ingest unit
// — an HTTP body or a TCP frame. wire.MaxFrameBytes bounds only the bytes:
// a 64 MiB delta block can decode to ~33.5M edges, enough for one request
// to push a flush group past the WAL's ~16.7M-edge record bound and fail
// innocent writers sharing the group commit. With this cap the worst group
// is maxGroupEdges (admission check) plus one TCP batch — maxGroupEdges/2
// drained frames plus one final maxRequestEdges frame — ≈ 8M edges, half
// the WAL bound.
const maxRequestEdges = maxGroupEdges / 2

// group is one flush generation: every Submit between two flushes lands in
// the same group and shares one WAL record, one fsync, and one stream feed
// (group commit). done closes when the group is durable and fed; err is the
// shared outcome and began the instant its flush started.
type group struct {
	edges []graph.Edge
	done  chan struct{}
	err   error
	lsn   uint64
	began time.Time
}

// batcher coalesces accepted updates into flush groups and clocks itself
// off its own flushes: a group's flush starts as soon as the group is
// non-empty and no flush is in flight, and Submits that arrive during a
// flush form the next group, flushed the moment the current one completes.
// Group size follows load, with no deadline and no size trigger, and no
// accepted edge waits longer than one flush. Flushes serialize on flushMu —
// the snapshot path takes the same mutex to fence an LSN at which "appended
// to the log" and "fed to the stream" coincide.
//
// Liveness rests on the kick alone. No wakeup is lost: an append to cur
// under mu is always followed by a send attempt on the 1-buffered kick; a
// failed attempt means a kick is still pending, and the loop follows its
// consumption with a swap under mu, which sees the append.
type batcher struct {
	st       *ingest.Stream
	log      *wal.Log // nil: no durability, flush feeds the stream only
	capEdges int      // admission cap per group; maxGroupEdges outside tests

	// onErr, when set, observes every failed flush (after the group's error
	// is fixed, before waiters wake). The server hooks it to flip into
	// degraded mode the moment a WAL append wedges.
	onErr func(error)

	// Commit-path stage histograms, set by the server before traffic (nil
	// discards), and the latest flush's duration — the measurement the WAL
	// and feed stages observe — kept for the Retry-After hint.
	waitSec, walSec, feedSec, groupEdges *Histogram
	flushNanos                           atomic.Int64

	mu     sync.Mutex
	cur    *group
	closed bool

	flushMu sync.Mutex

	kick chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
}

func newBatcher(st *ingest.Stream, log *wal.Log) *batcher {
	b := &batcher{
		st:       st,
		log:      log,
		capEdges: maxGroupEdges,
		cur:      &group{done: make(chan struct{})},
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	b.wg.Add(1)
	go b.loop()
	return b
}

// Submit appends edges to the current flush group and blocks until that
// group is durable in the WAL and fed to the ingest pipeline, returning the
// WAL record's LSN. This is the serving path's group commit: concurrent
// requests amortize one fsync.
func (b *batcher) Submit(edges []graph.Edge) (uint64, error) {
	if len(edges) == 0 {
		// Backstop: appending nothing to a group would park this goroutine
		// forever — flush() completes only non-empty groups. Callers reject
		// or skip empty batches before Submit; nothing was committed, so
		// there is no LSN to report.
		return 0, nil
	}
	start := time.Now()
	for {
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			return 0, errBatcherClosed
		}
		g := b.cur
		// Admission control: a group at the hard cap (only possible while a
		// flush is stalling the swap) admits nothing more. Wait it out and
		// land in its successor.
		capped := len(g.edges) >= b.capEdges
		if !capped {
			g.edges = append(g.edges, edges...)
		}
		b.mu.Unlock()
		b.kickFlush()
		<-g.done
		if capped {
			continue
		}
		b.waitSec.Observe(g.began.Sub(start).Seconds())
		return g.lsn, g.err
	}
}

func (b *batcher) kickFlush() {
	select {
	case b.kick <- struct{}{}:
	default:
	}
}

// loop flushes once per kick. A kick that finds cur already swapped out by
// the previous flush costs two mutex acquisitions and nothing else.
func (b *batcher) loop() {
	defer b.wg.Done()
	for {
		select {
		case <-b.kick:
		case <-b.stop:
			b.flush()
			return
		}
		b.flush()
	}
}

// flush swaps the current group out and completes it: WAL append (durable
// unless the log runs NoSync) first, stream feed second — the write-ahead
// ordering the recovery contract depends on. Waiters see err via the shared
// group.
func (b *batcher) flush() {
	b.flushMu.Lock()
	defer b.flushMu.Unlock()
	b.mu.Lock()
	g := b.cur
	if len(g.edges) == 0 {
		b.mu.Unlock()
		return
	}
	b.cur = &group{done: make(chan struct{})}
	b.mu.Unlock()

	g.began = time.Now()
	b.groupEdges.Observe(float64(len(g.edges)))
	appended := g.began
	if b.log != nil {
		g.lsn, g.err = b.log.Append(g.edges)
		appended = time.Now()
		b.walSec.Observe(appended.Sub(g.began).Seconds())
	}
	end := appended
	if g.err == nil {
		g.err = b.st.UpdateBatch(g.edges)
		end = time.Now()
		b.feedSec.Observe(end.Sub(appended).Seconds())
	}
	b.flushNanos.Store(int64(end.Sub(g.began)))
	if g.err != nil && b.onErr != nil {
		// Before waking waiters: a Submit caller that sees the error can
		// then also see the state transition it caused.
		b.onErr(g.err)
	}
	close(g.done)
}

// fence runs fn while no flush is in progress: every WAL-appended record is
// also fed to the stream at that instant, so fn observes a consistent
// (LSN, stream) cut. The snapshot path uses it to tag its snapshot.
func (b *batcher) fence(fn func()) {
	b.flushMu.Lock()
	defer b.flushMu.Unlock()
	fn()
}

// Close drains the batcher: no new Submits are admitted, the final group is
// flushed, and the loop exits. Idempotent.
func (b *batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.wg.Wait()
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.stop)
	b.wg.Wait()
}
