package fault

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func TestScheduleFailAt(t *testing.T) {
	s := NewSchedule(1).FailAt("wal.sync", 3, Action{Err: syscall.EIO})
	for i := 1; i <= 5; i++ {
		act := s.Next("wal.sync")
		if i == 3 {
			if act == nil || act.Err != syscall.EIO {
				t.Fatalf("op %d: want EIO, got %v", i, act)
			}
		} else if act != nil {
			t.Fatalf("op %d: unexpected action %v", i, act)
		}
	}
	if got := s.Count("wal.sync"); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
}

func TestScheduleFailEvery(t *testing.T) {
	s := NewSchedule(1).FailEvery("conn.write", 2, Action{Reset: true})
	fires := 0
	for i := 0; i < 10; i++ {
		if s.Next("conn.write") != nil {
			fires++
		}
	}
	if fires != 5 {
		t.Fatalf("every=2 over 10 ops fired %d times, want 5", fires)
	}
}

func TestScheduleProbDeterministic(t *testing.T) {
	run := func() []uint64 {
		s := NewSchedule(42).FailAfterProb("wal.write", 10, 0.3, Action{Err: syscall.ENOSPC})
		var hits []uint64
		for i := uint64(1); i <= 200; i++ {
			if s.Next("wal.write") != nil {
				hits = append(hits, i)
			}
		}
		return hits
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("p=0.3 over 190 eligible ops never fired")
	}
	for _, n := range a {
		if n <= 10 {
			t.Fatalf("fired at op %d, before after=10", n)
		}
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different fire counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different fire sequence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestScheduleOpIsolation(t *testing.T) {
	s := NewSchedule(1).FailAt("wal.sync", 1, Action{Err: syscall.EIO})
	if act := s.Next("wal.write"); act != nil {
		t.Fatalf("wal.write triggered wal.sync rule: %v", act)
	}
	if act := s.Next("wal.sync"); act == nil {
		t.Fatal("wal.sync rule did not fire on its own eligible op")
	}
}

func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule("wal.sync:at=2:err=EIO;conn.write:at=3:reset;wal.write:at=1:short=4:err=ENOSPC")
	if err != nil {
		t.Fatal(err)
	}
	if act := s.Next("wal.write"); act == nil || act.Short != 4 || act.Err != syscall.ENOSPC {
		t.Fatalf("wal.write at=1: got %+v", act)
	}
	s.Next("wal.sync")
	if act := s.Next("wal.sync"); act == nil || act.Err != syscall.EIO {
		t.Fatalf("wal.sync at=2: got %+v", act)
	}
	s.Next("conn.write")
	s.Next("conn.write")
	if act := s.Next("conn.write"); act == nil || !act.Reset {
		t.Fatalf("conn.write at=3: got %+v", act)
	}
}

func TestParseScheduleDefaults(t *testing.T) {
	s, err := ParseSchedule("wal.sync:at=1;conn.read:at=1")
	if err != nil {
		t.Fatal(err)
	}
	if act := s.Next("wal.sync"); act == nil || act.Err != syscall.EIO {
		t.Fatalf("bare wal rule should default to EIO, got %+v", act)
	}
	if act := s.Next("conn.read"); act == nil || !act.Reset {
		t.Fatalf("bare conn rule should default to reset, got %+v", act)
	}
}

func TestParseScheduleSeedAndDelay(t *testing.T) {
	s, err := ParseSchedule("seed=7;conn.read:at=1:delay=1ms")
	if err != nil {
		t.Fatal(err)
	}
	act := s.Next("conn.read")
	if act == nil || act.Delay != time.Millisecond {
		t.Fatalf("got %+v", act)
	}
}

func TestParseScheduleRejects(t *testing.T) {
	for _, spec := range []string{
		"wal.sync",                   // no trigger
		"wal.sync:err=EIO",           // action without trigger
		"wal.sync:at=0",              // zero at
		"wal.sync:at=1:err=EWHAT",    // unknown errno
		"wal.sync:at=1:p=0.5",        // mixed triggers
		"wal.sync:p=2:after=1",       // p out of range
		"wal.sync:at=1:bogus=3",      // unknown field
		"wal.sync:at=1:delay=-1s",    // negative delay
		"seed=x",                     // bad seed
		"conn.write:at=1:reset=true", // reset takes no value
		"wal.snyc:at=1",              // misspelled operation
		":at=1",                      // empty operation
		"seed=5:at=1",                // seed is not an operation
	} {
		if _, err := ParseSchedule(spec); err == nil {
			t.Errorf("ParseSchedule(%q) accepted, want error", spec)
		}
	}
}

func TestFaultFSShortWrite(t *testing.T) {
	dir := t.TempDir()
	s := NewSchedule(1).FailAt("wal.write", 2, Action{Err: syscall.ENOSPC, Short: 3})
	fsys := NewFS(nil, s)
	f, err := fsys.OpenFile(filepath.Join(dir, "x"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	n, err := f.Write([]byte("world!"))
	if n != 3 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("write 2: n=%d err=%v, want 3/ENOSPC", n, err)
	}
	f.Close()
	b, err := os.ReadFile(filepath.Join(dir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "hellowor" {
		t.Fatalf("file contents %q, want %q", b, "hellowor")
	}
}

func TestFaultFSSyncAndRename(t *testing.T) {
	dir := t.TempDir()
	s := NewSchedule(1).
		FailAt("wal.sync", 1, Action{Err: syscall.EIO}).
		FailAt("wal.rename", 1, Action{Err: syscall.EACCES})
	fsys := NewFS(nil, s)
	f, err := fsys.OpenFile(filepath.Join(dir, "a"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync: %v, want EIO", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 2 (past rule): %v", err)
	}
	f.Close()
	err = fsys.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b"))
	if !errors.Is(err, syscall.EACCES) {
		t.Fatalf("rename: %v, want EACCES", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "a")); err != nil {
		t.Fatalf("failed rename must leave source intact: %v", err)
	}
}

// TestFaultFSSyncDir: the schedule grammar names the directory sync, the
// wrapper fails it on the scheduled occurrence with the scheduled errno,
// and the passthrough syncs a real directory.
func TestFaultFSSyncDir(t *testing.T) {
	dir := t.TempDir()
	s, err := ParseSchedule("wal.syncdir:at=1:err=EIO")
	if err != nil {
		t.Fatal(err)
	}
	fsys := NewFS(nil, s)
	if err := fsys.SyncDir(dir); !errors.Is(err, syscall.EIO) {
		t.Fatalf("syncdir: %v, want EIO", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		t.Fatalf("syncdir 2 (past rule): %v", err)
	}
	if n := s.Count(OpWALSyncDir); n != 2 {
		t.Fatalf("Count(%q) = %d, want 2", OpWALSyncDir, n)
	}
	if err := OS.SyncDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("syncdir of a missing directory succeeded")
	}
}

func TestFaultFSNilPassthrough(t *testing.T) {
	if fs := NewFS(nil, nil); fs != OS {
		t.Fatal("NewFS(nil, nil) should return the passthrough OS")
	}
}

func TestWrapConnPassthroughWithoutConnRules(t *testing.T) {
	s := NewSchedule(1).FailAt("wal.sync", 1, Action{Err: syscall.EIO})
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if got := WrapConn(c1, s); got != c1 {
		t.Fatal("schedule without conn.* rules must not wrap")
	}
	if got := WrapConn(c1, nil); got != c1 {
		t.Fatal("nil schedule must not wrap")
	}
}

func TestWrapConnReset(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 16)
		for {
			if _, err := c.Read(buf); err != nil {
				done <- err
				return
			}
		}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSchedule(1).FailAt("conn.write", 2, Action{Reset: true})
	c := WrapConn(raw, s)
	if _, err := c.Write([]byte("ok")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if _, err := c.Write([]byte("boom")); err == nil {
		t.Fatal("write 2 should fail with injected reset")
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("server read should error after reset")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never observed the reset")
	}
	// The wrapped conn is dead; further writes fail too.
	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("write after reset should fail")
	}
}

func TestWrapConnErrAndPartial(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	s := NewSchedule(1).FailAt("conn.write", 1, Action{Err: syscall.EPIPE, Short: 2})
	c := WrapConn(c1, s)
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 8)
		n, _ := c2.Read(buf)
		got <- buf[:n]
	}()
	n, err := c.Write([]byte("abcdef"))
	if n != 2 || !errors.Is(err, syscall.EPIPE) {
		t.Fatalf("write: n=%d err=%v, want 2/EPIPE", n, err)
	}
	select {
	case b := <-got:
		if string(b) != "ab" {
			t.Fatalf("peer saw %q, want partial %q", b, "ab")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer never saw the partial frame")
	}
	c1.Close()
}
