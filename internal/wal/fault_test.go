package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"connectit/internal/fault"
	"connectit/internal/graph"
)

// edge batches used across the fault tests.
func batch(base uint32) []graph.Edge {
	return []graph.Edge{{U: base, V: base + 1}, {U: base + 2, V: base + 3}}
}

// replayAll reopens dir with a clean filesystem and returns the LSNs that
// replay, failing the test on any corruption.
func replayAll(t *testing.T, dir string) []uint64 {
	t.Helper()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	var lsns []uint64
	err = l.Replay(0, func(lsn uint64, edges []graph.Edge) error {
		lsns = append(lsns, lsn)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return lsns
}

func wantLSNs(t *testing.T, got []uint64, want ...uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed LSNs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replayed LSNs %v, want %v", got, want)
		}
	}
}

// A failed fsync must wedge the log fail-stop, keep every previously acked
// record, and clear via TryRecover so appends resume on a fresh segment.
func TestWedgeOnSyncFailureAndRecover(t *testing.T) {
	dir := t.TempDir()
	sched := fault.NewSchedule(1).FailAt("wal.sync", 2, fault.Action{Err: syscall.EIO})
	l, err := Open(dir, Options{FS: fault.NewFS(nil, sched)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(batch(0)); err != nil {
		t.Fatalf("append 1: %v", err)
	}
	if _, err := l.Append(batch(10)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append 2: %v, want wedge by EIO", err)
	}
	if l.Wedged() == nil {
		t.Fatal("log should be wedged")
	}
	// Fail-stop: later appends refuse without touching the disk.
	if _, err := l.Append(batch(20)); err == nil || !strings.Contains(err.Error(), "wedged") {
		t.Fatalf("append while wedged: %v, want wedged error", err)
	}
	st := l.Stats()
	if st.Wedges != 1 || st.Appends != 1 {
		t.Fatalf("stats after wedge: %+v", st)
	}

	if err := l.TryRecover(); err != nil {
		t.Fatalf("TryRecover: %v", err)
	}
	if l.Wedged() != nil {
		t.Fatal("log should be healthy after recovery")
	}
	lsn, err := l.Append(batch(10))
	if err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if lsn != 1 {
		t.Fatalf("post-recovery LSN = %d, want 1 (failed append must not consume an LSN)", lsn)
	}
	if st := l.Stats(); st.Recoveries != 1 {
		t.Fatalf("stats after recovery: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wantLSNs(t, replayAll(t, dir), 0, 1)
}

// ENOSPC while rotating to a new segment (the open of the segment file
// fails) wedges; recovery rotates successfully once space returns.
func TestENOSPCMidRotate(t *testing.T) {
	dir := t.TempDir()
	// SegmentBytes below one record forces a rotation per append; the
	// second append's rotate performs the second wal.open.
	sched := fault.NewSchedule(1).FailAt("wal.open", 2, fault.Action{Err: syscall.ENOSPC})
	l, err := Open(dir, Options{SegmentBytes: 1, FS: fault.NewFS(nil, sched)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(batch(0)); err != nil {
		t.Fatalf("append 1: %v", err)
	}
	if _, err := l.Append(batch(10)); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append 2: %v, want ENOSPC wedge", err)
	}
	if l.Wedged() == nil {
		t.Fatal("rotate failure must wedge")
	}
	// The acked record survives a reopen even while wedged.
	wantLSNs(t, replayAll(t, dir), 0)

	if err := l.TryRecover(); err != nil {
		t.Fatalf("TryRecover: %v", err)
	}
	if lsn, err := l.Append(batch(10)); err != nil || lsn != 1 {
		t.Fatalf("append after recovery: lsn=%d err=%v", lsn, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wantLSNs(t, replayAll(t, dir), 0, 1)
}

// A short write that tears a v2 record mid-payload must leave exactly the
// acked prefix after reopen — the torn record is trimmed, not replayed and
// not corruption.
func TestShortWriteInV2Payload(t *testing.T) {
	dir := t.TempDir()
	// Writes: #1 segment header, #2 record 0, #3 record 1, #4 record 2
	// (torn: header plus three payload bytes land, then ENOSPC).
	sched := fault.NewSchedule(1).FailAt("wal.write", 4, fault.Action{Err: syscall.ENOSPC, Short: recHeader + 3})
	l, err := Open(dir, Options{NoSync: true, FS: fault.NewFS(nil, sched)})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 2; i++ {
		if _, err := l.Append(batch(10 * i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if _, err := l.Append(batch(100)); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("torn append: %v, want ENOSPC", err)
	}
	// Simulate a crash before any cleanup: reopen from the files as the
	// wedge left them. (wedge already trimmed best-effort, but the reopen
	// contract must hold regardless.)
	wantLSNs(t, replayAll(t, dir), 0, 1)

	// And the wedged instance itself recovers in place.
	if err := l.TryRecover(); err != nil {
		t.Fatalf("TryRecover: %v", err)
	}
	if lsn, err := l.Append(batch(100)); err != nil || lsn != 2 {
		t.Fatalf("append after recovery: lsn=%d err=%v", lsn, err)
	}
	l.Close()
	wantLSNs(t, replayAll(t, dir), 0, 1, 2)
}

// A wedge must trim the torn bytes off the segment immediately, so even a
// kill -9 between the wedge and any recovery leaves no torn tail on disk:
// the segment ends at exactly the acked prefix. A same-content healthy log
// provides the expected byte size.
func TestShortWriteTrimsToAckedPrefix(t *testing.T) {
	dir := t.TempDir()
	sched := fault.NewSchedule(1).
		FailAt("wal.write", 3, fault.Action{Err: syscall.ENOSPC, Short: recHeader + 5})
	l, err := Open(dir, Options{NoSync: true, FS: fault.NewFS(nil, sched)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(batch(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(batch(10)); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want torn append, got %v", err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	st, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	probeDir := filepath.Join(dir, "probe")
	l2, err := Open(probeDir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Append(batch(0)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	probe, err := filepath.Glob(filepath.Join(probeDir, "*.wal"))
	if err != nil || len(probe) != 1 {
		t.Fatalf("probe segments: %v %v", probe, err)
	}
	pst, err := os.Stat(probe[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != pst.Size() {
		t.Fatalf("wedged segment is %d bytes, want the one-record size %d (partial bytes not trimmed)", st.Size(), pst.Size())
	}
	l.Close()
	wantLSNs(t, replayAll(t, dir), 0)
}

// A failed fsync while installing a snapshot must abort the install: no
// snapshot becomes visible, no segment is pruned, and the log keeps
// appending — snapshot failure is retryable, never wedging.
func TestSnapshotInstallFsyncFailure(t *testing.T) {
	dir := t.TempDir()
	// NoSync appends never fsync, so the first wal.sync op is the
	// snapshot tmp file's install sync.
	sched := fault.NewSchedule(1).FailAt("wal.sync", 1, fault.Action{Err: syscall.EIO})
	l, err := Open(dir, Options{NoSync: true, FS: fault.NewFS(nil, sched)})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 3; i++ {
		if _, err := l.Append(batch(10 * i)); err != nil {
			t.Fatal(err)
		}
	}
	err = l.CommitSnapshot(3, batch(0))
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("CommitSnapshot: %v, want EIO", err)
	}
	if _, _, ok := l.LatestSnapshot(); ok {
		t.Fatal("failed snapshot must not be installed")
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "snap-*")); len(names) != 0 {
		t.Fatalf("failed snapshot left files: %v", names)
	}
	if st := l.Stats(); st.Snapshots != 0 || st.Segments != 1 {
		t.Fatalf("stats after failed snapshot: %+v", st)
	}
	// The log is unharmed: appends continue, and a retry installs.
	if _, err := l.Append(batch(50)); err != nil {
		t.Fatalf("append after failed snapshot: %v", err)
	}
	err = l.CommitSnapshot(4, batch(0))
	if err != nil {
		t.Fatalf("snapshot retry: %v", err)
	}
	if lsn, _, ok := l.LatestSnapshot(); !ok || lsn != 4 {
		t.Fatalf("retry snapshot: lsn=%d ok=%v", lsn, ok)
	}
	l.Close()
}

// A rename failure during snapshot install likewise aborts cleanly.
func TestSnapshotInstallRenameFailure(t *testing.T) {
	dir := t.TempDir()
	sched := fault.NewSchedule(1).FailAt("wal.rename", 1, fault.Action{Err: syscall.EACCES})
	l, err := Open(dir, Options{NoSync: true, FS: fault.NewFS(nil, sched)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(batch(0)); err != nil {
		t.Fatal(err)
	}
	err = l.CommitSnapshot(1, batch(0))
	if !errors.Is(err, syscall.EACCES) {
		t.Fatalf("CommitSnapshot: %v, want EACCES", err)
	}
	if _, _, ok := l.LatestSnapshot(); ok {
		t.Fatal("failed snapshot must not be installed")
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "snap-*")); len(names) != 0 {
		t.Fatalf("failed snapshot left files: %v", names)
	}
	l.Close()
}

// TryRecover that itself fails (the recovery truncate hits the same bad
// disk) leaves the log wedged; a later attempt succeeds.
func TestRecoveryFailureStaysWedged(t *testing.T) {
	dir := t.TempDir()
	sched := fault.NewSchedule(1).
		FailAt("wal.sync", 1, fault.Action{Err: syscall.EIO}).
		FailAt("wal.truncate", 1, fault.Action{Err: syscall.EIO})
	l, err := Open(dir, Options{FS: fault.NewFS(nil, sched)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(batch(0)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append: %v, want EIO wedge", err)
	}
	if err := l.TryRecover(); err == nil {
		t.Fatal("TryRecover should fail while the truncate fault is armed")
	}
	if l.Wedged() == nil {
		t.Fatal("log must stay wedged after failed recovery")
	}
	if err := l.TryRecover(); err != nil {
		t.Fatalf("second TryRecover: %v", err)
	}
	if lsn, err := l.Append(batch(0)); err != nil || lsn != 0 {
		t.Fatalf("append after recovery: lsn=%d err=%v", lsn, err)
	}
	l.Close()
	wantLSNs(t, replayAll(t, dir), 0)
}

// A failed directory sync while rotating to a new segment wedges the log
// like any failed rotation, before the segment takes a record: the acked
// records survive a reopen, and recovery rotates once the sync works.
func TestSyncDirFailureAtRotationWedges(t *testing.T) {
	dir := t.TempDir()
	// SegmentBytes below one record forces a rotation per append, and each
	// rotation syncs the directory: the second append's is the second.
	sched := fault.NewSchedule(1).FailAt(fault.OpWALSyncDir, 2, fault.Action{Err: syscall.EIO})
	l, err := Open(dir, Options{SegmentBytes: 1, FS: fault.NewFS(nil, sched)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(batch(0)); err != nil {
		t.Fatalf("append 1: %v", err)
	}
	if _, err := l.Append(batch(10)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append 2: %v, want EIO wedge", err)
	}
	if l.Wedged() == nil {
		t.Fatal("a failed directory sync at rotation must wedge")
	}
	wantLSNs(t, replayAll(t, dir), 0)

	if err := l.TryRecover(); err != nil {
		t.Fatalf("TryRecover: %v", err)
	}
	if lsn, err := l.Append(batch(10)); err != nil || lsn != 1 {
		t.Fatalf("append after recovery: lsn=%d err=%v", lsn, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wantLSNs(t, replayAll(t, dir), 0, 1)
}

// A failed directory sync after a snapshot's rename returns the error and
// keeps the old snapshot installed, on disk as in memory, and every
// segment; a retry installs and leaves one snapshot file.
func TestSnapshotInstallSyncDirFailure(t *testing.T) {
	dir := t.TempDir()
	// NoSync appends never sync the directory, so the first wal.syncdir is
	// the first snapshot's install and the second the one that fails.
	sched := fault.NewSchedule(1).FailAt(fault.OpWALSyncDir, 2, fault.Action{Err: syscall.EIO})
	l, err := Open(dir, Options{NoSync: true, SegmentBytes: 1, FS: fault.NewFS(nil, sched)})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 4; i++ {
		if _, err := l.Append(batch(10 * i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.CommitSnapshot(2, batch(0)); err != nil {
		t.Fatalf("first snapshot: %v", err)
	}
	_, oldPath, _ := l.LatestSnapshot()
	segs := l.Stats().Segments
	if err := l.CommitSnapshot(4, batch(0)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("CommitSnapshot: %v, want EIO", err)
	}
	if lsn, path, ok := l.LatestSnapshot(); !ok || lsn != 2 || path != oldPath {
		t.Fatalf("after a failed install: snapshot %d at %q (ok=%v), want 2 at %q", lsn, path, ok, oldPath)
	}
	if _, err := os.Stat(oldPath); err != nil {
		t.Fatalf("old snapshot gone after a failed install: %v", err)
	}
	if st := l.Stats(); st.Snapshots != 1 || st.Segments != segs {
		t.Fatalf("stats after failed snapshot: %+v, want 1 snapshot and %d segments", st, segs)
	}
	if err := l.CommitSnapshot(4, batch(0)); err != nil {
		t.Fatalf("snapshot retry: %v", err)
	}
	if lsn, _, ok := l.LatestSnapshot(); !ok || lsn != 4 {
		t.Fatalf("retry snapshot: lsn=%d ok=%v", lsn, ok)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "snap-*")); len(names) != 1 {
		t.Fatalf("snapshot files after the retry: %v, want one", names)
	}
	// The open segment outlives compaction, so its record replays again.
	wantLSNs(t, replayAll(t, dir), 3)
}

// components labels every vertex below n with the smallest vertex of its
// component in the graph the edges span.
func components(n int, edges []graph.Edge) []uint32 {
	parent := make([]uint32, n)
	for i := range parent {
		parent[i] = uint32(i)
	}
	find := func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		ru, rv := find(e.U), find(e.V)
		if rv < ru {
			ru, rv = rv, ru
		}
		parent[rv] = ru
	}
	for i := range parent {
		parent[i] = find(uint32(i))
	}
	return parent
}

// TestSnapshotInstallCrashPointEnumeration fails CommitSnapshot at every
// filesystem operation it performs — the temporary file's create, each
// write (whole and torn), its fsync, the rename, and each Remove of the
// prune — then reopens the directory and recovers it. At every point
// exactly one snapshot is installed, the old or the new one; no segment is
// pruned unless the new one was installed; and snapshot plus tail recover
// the partition every record implies.
func TestSnapshotInstallCrashPointEnumeration(t *testing.T) {
	const records, oldAt, newAt = 30, 10, 25
	const n = records*16 + 8 // recEdges(i) stays below (i+1)*16
	upTo := func(k int) []graph.Edge {
		var edges []graph.Edge
		for i := 0; i < k; i++ {
			edges = append(edges, recEdges(i)...)
		}
		return edges
	}
	want := components(n, upTo(records))

	master := t.TempDir()
	l, err := Open(master, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, records)
	if err := l.CommitSnapshot(oldAt, upTo(oldAt)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	segsBefore, _ := filepath.Glob(filepath.Join(master, "*.wal"))
	for i := range segsBefore {
		segsBefore[i] = filepath.Base(segsBefore[i])
	}

	// install copies master and runs CommitSnapshot(newAt) on the copy
	// under sched, returning the copy, the schedule's operation counts from
	// just before the commit, and the commit's error.
	ops := []string{fault.OpWALOpen, fault.OpWALWrite, fault.OpWALSync, fault.OpWALRename, fault.OpWALRemove}
	install := func(sched *fault.Schedule) (dir string, before map[string]uint64, err error) {
		dir = t.TempDir()
		copyDir(t, master, dir)
		l, err := Open(dir, Options{SegmentBytes: 128, FS: fault.NewFS(nil, sched)})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		before = map[string]uint64{}
		for _, op := range ops {
			before[op] = sched.Count(op)
		}
		return dir, before, l.CommitSnapshot(newAt, upTo(newAt))
	}

	clean := fault.NewSchedule(1)
	_, before, err := install(clean)
	if err != nil {
		t.Fatalf("clean install: %v", err)
	}
	if removes := clean.Count(fault.OpWALRemove) - before[fault.OpWALRemove]; removes < 3 {
		t.Fatalf("clean install removed %d files, want the old snapshot and several segments", removes)
	}

	type point struct {
		op  string
		at  uint64
		act fault.Action
	}
	var points []point
	for _, op := range ops {
		for at := before[op] + 1; at <= clean.Count(op); at++ {
			points = append(points, point{op, at, fault.Action{Err: syscall.EIO, Short: -1}})
			if op == fault.OpWALWrite {
				points = append(points, point{op, at, fault.Action{Err: syscall.ENOSPC, Short: 5}})
			}
		}
	}
	t.Logf("enumerating %d failure points", len(points))

	for _, p := range points {
		name := fmt.Sprintf("%s@%d/short=%d", p.op, p.at, p.act.Short)
		dir, _, commitErr := install(fault.NewSchedule(1).FailAt(p.op, p.at, p.act))

		l, err := Open(dir, Options{SegmentBytes: 128})
		if err != nil {
			t.Fatalf("%s: reopen: %v", name, err)
		}
		snapLSN, _, ok := l.LatestSnapshot()
		snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*"))
		if !ok || len(snaps) != 1 || (snapLSN != oldAt && snapLSN != newAt) {
			t.Fatalf("%s: installed snapshot LSN %d (ok=%v), files %v; want exactly one, at %d or %d", name, snapLSN, ok, snaps, oldAt, newAt)
		}
		if (commitErr == nil) != (snapLSN == newAt) {
			t.Fatalf("%s: CommitSnapshot returned %v, yet the snapshot at LSN %d is installed", name, commitErr, snapLSN)
		}
		if snapLSN == oldAt {
			segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
			for i := range segs {
				segs[i] = filepath.Base(segs[i])
			}
			if !slices.Equal(segs, segsBefore) {
				t.Fatalf("%s: segments %v after a failed install, had %v", name, segs, segsBefore)
			}
		}

		var fed []graph.Edge
		err = l.ReplaySnapshot(func(edges []graph.Edge) error {
			fed = append(fed, edges...)
			return nil
		})
		if err == nil {
			err = l.Replay(snapLSN, func(_ uint64, edges []graph.Edge) error {
				fed = append(fed, edges...)
				return nil
			})
		}
		if err != nil {
			t.Fatalf("%s: recovery: %v", name, err)
		}
		if !slices.Equal(components(n, fed), want) {
			t.Fatalf("%s: recovered partition differs from the records'", name)
		}
		l.Close()
	}
}
