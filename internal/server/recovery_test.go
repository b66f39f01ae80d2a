package server

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"connectit/internal/graph"
)

// oracle is the sequential union-find reference for recovery checks.
type oracle struct{ p []uint32 }

func newOracle(n int) *oracle {
	o := &oracle{p: make([]uint32, n)}
	for i := range o.p {
		o.p[i] = uint32(i)
	}
	return o
}

func (o *oracle) find(x uint32) uint32 {
	for o.p[x] != x {
		o.p[x] = o.p[o.p[x]]
		x = o.p[x]
	}
	return x
}

func (o *oracle) union(u, v uint32) { o.union2(o.find(u), o.find(v)) }
func (o *oracle) union2(ru, rv uint32) {
	if ru != rv {
		o.p[ru] = rv
	}
}

// checkAgainstOracle compares the server's Connected answers with the
// oracle on every adjacent pair plus a spread of random pairs.
func checkAgainstOracle(t *testing.T, s *Server, o *oracle, n int, rng *rand.Rand) {
	t.Helper()
	ask := func(u, v uint32) {
		got, err := s.st.Connected(u, v)
		if err != nil {
			t.Fatalf("Connected(%d,%d): %v", u, v, err)
		}
		if want := o.find(u) == o.find(v); got != want {
			t.Fatalf("Connected(%d,%d) = %v after recovery, oracle says %v", u, v, got, want)
		}
	}
	for u := 1; u < n; u++ {
		ask(uint32(u-1), uint32(u))
	}
	for i := 0; i < 200; i++ {
		ask(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
}

// submitRandom pushes batches through the group-commit path (the same code
// the HTTP handler runs), records them in the oracle once acknowledged, and
// returns every submitted edge.
func submitRandom(t *testing.T, s *Server, o *oracle, n, batches, perBatch int, rng *rand.Rand) []graph.Edge {
	t.Helper()
	var all []graph.Edge
	for i := 0; i < batches; i++ {
		edges := make([]graph.Edge, perBatch)
		for j := range edges {
			edges[j] = graph.Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
		}
		if _, err := s.bat.Submit(edges); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		for _, e := range edges {
			o.union(e.U, e.V)
		}
		all = append(all, edges...)
	}
	return all
}

// crash abandons a server the way a kill -9 would: the WAL file handle is
// dropped without the graceful drain/snapshot/seal sequence. Every batch
// Submit acknowledged is already on disk (Append fsyncs before Submit
// returns), which is exactly the durability contract under test.
func crash(s *Server) {
	s.log.Close()
}

func durableOptions(dir string) Options {
	return Options{
		WALDir:           dir,
		SnapshotInterval: -1, // no periodic snapshots; tests trigger their own
		SegmentBytes:     1 << 12,
	}
}

// TestRecoveryAfterCrash is the acceptance check: acknowledged updates,
// hard crash mid-ingest, restart from the WAL, and the recovered server
// answers exactly like an uninterrupted oracle.
func TestRecoveryAfterCrash(t *testing.T) {
	const n = 256
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(42))
	o := newOracle(n)

	s1, err := New(testStream(t, n), durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	submitRandom(t, s1, o, n, 40, 8, rng)
	crash(s1)

	s2, err := New(testStream(t, n), durableOptions(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s2.Close(ctx)
	}()
	checkAgainstOracle(t, s2, o, n, rng)

	// The recovered server keeps accepting and stays correct.
	submitRandom(t, s2, o, n, 10, 8, rng)
	checkAgainstOracle(t, s2, o, n, rng)
}

// TestRecoveryWithSnapshotAndTail crashes after a snapshot plus more
// acknowledged updates: recovery must compose the snapshot's forest with
// the WAL tail, not either alone.
func TestRecoveryWithSnapshotAndTail(t *testing.T) {
	const n = 300
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	o := newOracle(n)

	s1, err := New(testStream(t, n), durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	submitRandom(t, s1, o, n, 60, 8, rng)
	if err := s1.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	segsAfterSnap := s1.log.Stats().Segments
	submitRandom(t, s1, o, n, 30, 8, rng) // the tail beyond the snapshot
	crash(s1)

	s2, err := New(testStream(t, n), durableOptions(dir))
	if err != nil {
		t.Fatalf("recovery with snapshot: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s2.Close(ctx)
	}()
	if lsn, _, ok := s2.log.LatestSnapshot(); !ok || lsn == 0 {
		t.Fatalf("recovered log lost the snapshot (lsn=%d ok=%v)", lsn, ok)
	}
	if segsAfterSnap > 3 {
		t.Fatalf("snapshot failed to compact: %d segments survived", segsAfterSnap)
	}
	checkAgainstOracle(t, s2, o, n, rng)
}

// TestGracefulClosePersistsEverything closes cleanly (final snapshot) and
// verifies a restart recovers without replaying any tail records.
func TestGracefulClosePersistsEverything(t *testing.T) {
	const n = 200
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	o := newOracle(n)

	s1, err := New(testStream(t, n), durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	submitRandom(t, s1, o, n, 50, 8, rng)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatalf("graceful Close: %v", err)
	}

	s2, err := New(testStream(t, n), durableOptions(dir))
	if err != nil {
		t.Fatalf("restart after graceful close: %v", err)
	}
	defer s2.Close(ctx)
	// The final snapshot covers the full log; boot should not need the tail.
	lsn, _, ok := s2.log.LatestSnapshot()
	if !ok || lsn != s2.log.LSN() {
		t.Fatalf("final snapshot covers LSN %d, log at %d (ok=%v)", lsn, s2.log.LSN(), ok)
	}
	checkAgainstOracle(t, s2, o, n, rng)
}

// TestRecoveryPathsUseIngestedEdges: after a snapshot, a tail, a crash and a
// reboot, every witness path /v1/path returns must walk submitted edges
// only. A snapshot that persisted anything but the live forest (a star
// labelling, say) would hand the rebooted stream edges nobody ingested.
// Type iii captures no forest, so its row checks connectivity alone.
func TestRecoveryPathsUseIngestedEdges(t *testing.T) {
	for _, spec := range []string{"uf;rem-cas;naive;split-one", "sv", "lt;CRFA", "uf;rem-cas;naive;splice"} {
		t.Run(spec, func(t *testing.T) {
			const n = 200
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(5))
			o := newOracle(n)

			s1, err := New(specStream(t, n, spec), durableOptions(dir))
			if err != nil {
				t.Fatal(err)
			}
			ingested := submitRandom(t, s1, o, n, 30, 4, rng)
			if err := s1.Snapshot(); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			ingested = append(ingested, submitRandom(t, s1, o, n, 10, 4, rng)...)
			crash(s1)

			s2, err := New(specStream(t, n, spec), durableOptions(dir))
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			ts := httptest.NewServer(s2.Handler())
			t.Cleanup(func() {
				ts.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				s2.Close(ctx)
			})
			checkAgainstOracle(t, s2, o, n, rng)
			if s2.q == nil {
				return
			}

			submitted := make(map[graph.Edge]bool, 2*len(ingested))
			for _, e := range ingested {
				submitted[e], submitted[graph.Edge{U: e.V, V: e.U}] = true, true
			}
			walked := 0
			for i := 0; i < 150; i++ {
				u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
				resp, m := getJSON(t, ts.URL+"/v1/path?u="+itoa(u)+"&v="+itoa(v))
				if resp.StatusCode != 200 {
					t.Fatalf("path(%d,%d): %d", u, v, resp.StatusCode)
				}
				for _, p := range m["path"].([]any) {
					pair := p.([]any)
					e := graph.Edge{U: uint32(pair[0].(float64)), V: uint32(pair[1].(float64))}
					if !submitted[e] {
						t.Fatalf("path(%d,%d) walks {%d, %d}, which was never submitted", u, v, e.U, e.V)
					}
					walked++
				}
			}
			if walked == 0 {
				t.Fatal("no path walked any edge; the check proved nothing")
			}
		})
	}
}

// TestRecoveryRejectsOutOfRangeEdges reboots a log written for 256 vertices
// on a 128-vertex stream, once through the WAL tail and once through a
// snapshot: New must fail with an error naming the record or the file, and
// must not hand the stream an out-of-range endpoint, which panics (for
// Type i in the caller, for Types ii and iii in an apply goroutine).
func TestRecoveryRejectsOutOfRangeEdges(t *testing.T) {
	for _, spec := range []string{"uf;rem-cas;naive;split-one", "sv", "uf;rem-cas;naive;splice"} {
		for _, snapshot := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/snapshot=%v", spec, snapshot), func(t *testing.T) {
				dir := t.TempDir()
				rng := rand.New(rand.NewSource(9))
				s1, err := New(specStream(t, 256, spec), durableOptions(dir))
				if err != nil {
					t.Fatal(err)
				}
				submitRandom(t, s1, newOracle(256), 256, 20, 8, rng)
				names := "LSN"
				if snapshot {
					if err := s1.Snapshot(); err != nil {
						t.Fatalf("Snapshot: %v", err)
					}
					names = "snap-"
				}
				crash(s1)

				st := specStream(t, 128, spec)
				defer st.Close()
				s2, err := New(st, durableOptions(dir))
				if err == nil {
					s2.Close(context.Background())
					t.Fatal("New booted a 128-vertex stream over a 256-vertex log")
				}
				if !strings.Contains(err.Error(), "out of range") || !strings.Contains(err.Error(), names) {
					t.Fatalf("New error %q, want an out-of-range error naming its %s", err, names)
				}
			})
		}
	}
}
