package server

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"connectit/internal/fault"
	"connectit/internal/graph"
	"connectit/internal/wal"
)

// walRecord is one replayed WAL record.
type walRecord struct {
	lsn   uint64
	edges []graph.Edge
}

// replayRecords reopens dir on the real filesystem and returns every record
// that replays, in order.
func replayRecords(t *testing.T, dir string) []walRecord {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	var recs []walRecord
	err = l.Replay(0, func(lsn uint64, edges []graph.Edge) error {
		recs = append(recs, walRecord{lsn, append([]graph.Edge(nil), edges...)})
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs
}

// waitOrFatal fails the test if wg does not finish within d: the batcher's
// liveness failures show up as parked Submits, not as errors.
func waitOrFatal(t *testing.T, wg *sync.WaitGroup, d time.Duration, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still parked after %v", what, d)
	}
}

// TestBatcherNoLostWakeup hammers the kick protocol with nothing but the
// kick to drive flushes: every Submit is a one-edge group's worth of work
// racing the loop's swap, and a single lost wakeup parks its goroutine
// forever.
func TestBatcherNoLostWakeup(t *testing.T) {
	st := testStream(t, 16)
	defer st.Close()
	b := newBatcher(st, nil)
	defer b.Close()

	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := b.Submit([]graph.Edge{{U: 1, V: 2}}); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}()
	}
	waitOrFatal(t, &wg, 60*time.Second, "a Submit (lost kick)")
}

// TestBatcherGroupsWhileFlushInFlight pins that group commit still
// amortizes without a timer: Submits that arrive while a flush holds
// flushMu share the next group — one WAL record, one LSN.
func TestBatcherGroupsWhileFlushInFlight(t *testing.T) {
	const submits = 32
	st := testStream(t, 2*submits)
	defer st.Close()
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := newBatcher(st, l)

	stalled, release := make(chan struct{}), make(chan struct{})
	go b.fence(func() { close(stalled); <-release })
	<-stalled

	lsns := make([]uint64, submits)
	var wg sync.WaitGroup
	for i := 0; i < submits; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn, err := b.Submit([]graph.Edge{{U: uint32(2 * i), V: uint32(2*i + 1)}})
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
			}
			lsns[i] = lsn
		}(i)
	}
	// Release only once every Submit has joined the stalled group, so the
	// append count below is a property of the batcher, not of scheduling.
	for joined := 0; joined < submits; {
		b.mu.Lock()
		joined = len(b.cur.edges)
		b.mu.Unlock()
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	waitOrFatal(t, &wg, 30*time.Second, "a Submit")

	if got := l.Stats().Appends; got > 2 {
		t.Fatalf("%d WAL appends for %d Submits queued behind one flush, want <= 2", got, submits)
	}
	b.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	holder := make(map[graph.Edge]uint64)
	for _, r := range replayRecords(t, dir) {
		for _, e := range r.edges {
			holder[e] = r.lsn
		}
	}
	for i, lsn := range lsns {
		e := graph.Edge{U: uint32(2 * i), V: uint32(2*i + 1)}
		if want, ok := holder[e]; !ok || want != lsn {
			t.Errorf("Submit %d returned LSN %d, but record %d (present %v) holds its edge", i, lsn, want, ok)
		}
	}
}

// TestBatcherSubmitRacingClose races Submits against Close: each one is
// either refused with errBatcherClosed or durable in the log — never
// accepted and dropped, never parked on a group nobody will flush.
func TestBatcherSubmitRacingClose(t *testing.T) {
	const workers, perWorker = 8, 1 << 12
	st := testStream(t, workers*perWorker)
	defer st.Close()
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	b := newBatcher(st, l)

	var committed atomic.Int64
	acked := make([][]graph.Edge, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				e := graph.Edge{U: uint32(w*perWorker + i), V: uint32(w * perWorker)}
				if _, err := b.Submit([]graph.Edge{e}); err != nil {
					if !errors.Is(err, errBatcherClosed) {
						t.Errorf("Submit: %v, want errBatcherClosed", err)
					}
					return
				}
				acked[w] = append(acked[w], e)
				committed.Add(1)
			}
		}(w)
	}
	for committed.Load() < 64 { // Close mid-traffic, not before it
		time.Sleep(100 * time.Microsecond)
	}
	b.Close()
	waitOrFatal(t, &wg, 30*time.Second, "a Submit racing Close")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	durable := make(map[graph.Edge]bool)
	for _, r := range replayRecords(t, dir) {
		for _, e := range r.edges {
			durable[e] = true
		}
	}
	for w := range acked {
		for _, e := range acked[w] {
			if !durable[e] {
				t.Fatalf("Submit of %v returned nil but is not in the replayed log", e)
			}
		}
	}
}

// crashGroups is the fixed submission sequence of the crash-point
// enumeration: 48 distinct groups of one to three edges.
func crashGroups() [][]graph.Edge {
	groups := make([][]graph.Edge, 48)
	for i := range groups {
		for j := 0; j <= i%3; j++ {
			groups[i] = append(groups[i], graph.Edge{U: uint32(4*i + j), V: uint32(4*i + j + 1)})
		}
	}
	return groups
}

// runCrashGroups submits groups one at a time through a batcher over a
// fresh log in dir whose filesystem runs sched, and returns each Submit's
// outcome plus the WAL writes and fsyncs those Submits performed (counted
// before the log's closing sync, which belongs to no Submit). Sequential
// Submits make one flush group — one WAL record — each, so the operation
// sequence is identical run to run up to the first fault.
func runCrashGroups(t *testing.T, dir string, sched *fault.Schedule, groups [][]graph.Edge) (lsns []uint64, errs []error, writes, syncs uint64) {
	t.Helper()
	st := testStream(t, 4*len(groups)+4)
	defer st.Close()
	// A small segment bound puts rotations (header write, segment sync)
	// among the enumerated points.
	l, err := wal.Open(dir, wal.Options{SegmentBytes: 256, FS: fault.NewFS(nil, sched)})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	b := newBatcher(st, l)
	defer b.Close()
	for _, g := range groups {
		lsn, err := b.Submit(g)
		lsns, errs = append(lsns, lsn), append(errs, err)
	}
	return lsns, errs, sched.Count(fault.OpWALWrite), sched.Count(fault.OpWALSync)
}

// TestGroupCommitCrashPointEnumeration fails the group-commit path at every
// WAL write and every fsync it performs — not a sample — and checks the
// durability contract at each point: what replays afterwards is an exact
// in-order prefix of what was submitted, it contains every acknowledged
// group, and nothing is acknowledged after the first failure.
func TestGroupCommitCrashPointEnumeration(t *testing.T) {
	groups := crashGroups()

	_, errs, writes, syncs := runCrashGroups(t, t.TempDir(), fault.NewSchedule(1), groups)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("clean run: Submit %d: %v", i, err)
		}
	}
	t.Logf("enumerating %d WAL writes (x2 shapes) and %d fsyncs", writes, syncs)
	if writes < uint64(len(groups)) || syncs < uint64(len(groups)) {
		t.Fatalf("clean run counted %d writes and %d syncs for %d groups", writes, syncs, len(groups))
	}

	type point struct {
		op  string
		at  uint64
		act fault.Action
	}
	var points []point
	for i := uint64(1); i <= writes; i++ {
		points = append(points,
			point{fault.OpWALWrite, i, fault.Action{Err: syscall.EIO, Short: -1}},
			point{fault.OpWALWrite, i, fault.Action{Err: syscall.ENOSPC, Short: 9}})
	}
	for i := uint64(1); i <= syncs; i++ {
		points = append(points, point{fault.OpWALSync, i, fault.Action{Err: syscall.EIO, Short: -1}})
	}

	for _, p := range points {
		name := fmt.Sprintf("%s@%d/short=%d", p.op, p.at, p.act.Short)
		dir := t.TempDir()
		lsns, errs, _, _ := runCrashGroups(t, dir, fault.NewSchedule(1).FailAt(p.op, p.at, p.act), groups)
		recs := replayRecords(t, dir)

		if len(recs) > len(groups) {
			t.Fatalf("%s: replayed %d records, submitted %d", name, len(recs), len(groups))
		}
		for j, r := range recs {
			if r.lsn != uint64(j) || !slices.Equal(r.edges, groups[j]) {
				t.Fatalf("%s: replayed record %d is LSN %d %v, want LSN %d %v", name, j, r.lsn, r.edges, j, groups[j])
			}
		}
		failed := -1
		for i, err := range errs {
			switch {
			case err != nil && failed < 0:
				failed = i
			case err == nil && failed >= 0:
				t.Fatalf("%s: Submit %d acknowledged after Submit %d failed", name, i, failed)
			case err == nil:
				if i > 0 && lsns[i] <= lsns[i-1] {
					t.Fatalf("%s: Submit %d got LSN %d after LSN %d", name, i, lsns[i], lsns[i-1])
				}
				if lsns[i] >= uint64(len(recs)) || !slices.Equal(recs[lsns[i]].edges, groups[i]) {
					t.Fatalf("%s: acknowledged Submit %d (LSN %d) is not in the %d replayed records", name, i, lsns[i], len(recs))
				}
			}
		}
		if failed < 0 {
			t.Fatalf("%s: the injected fault failed no Submit", name)
		}
	}
}
