package connectit

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"
)

// chaosClientOpts is tuned for tests: tight backoff, a generous attempt
// budget (recovery probes and CI disks are slow relative to the delays),
// and a fixed seed so two runs behave identically.
func chaosClientOpts(window int) DialIngestOptions {
	return DialIngestOptions{
		Window: window,
		Retry: RetryPolicy{
			MaxAttempts: 50,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
			Seed:        7,
		},
	}
}

func startChaosServer(t *testing.T, dir, faults string) *Server {
	t.Helper()
	srv, err := NewServer(ServerOptions{
		Addr:             "127.0.0.1:0",
		IngestAddr:       "127.0.0.1:0",
		NumVertices:      256,
		WALDir:           dir,
		SnapshotInterval: -1,
		ProbeInterval:    10 * time.Millisecond,
		FaultSpec:        faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	return srv
}

func closeServer(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("server close: %v", err)
	}
}

func httpBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricValue digs one metric's value out of the Prometheus text format.
func metricValue(t *testing.T, addr, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(httpBody(t, "http://"+addr+"/metrics"), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%g", &v)
			return v
		}
	}
	t.Fatalf("metric %s not exported", name)
	return 0
}

// chaosEpisode runs one full seeded chaos load: a lock-step client streams
// a path graph into a server armed with a TCP reset at the 10th conn write
// and an fsync failure at the 20th WAL sync, healing through both. It
// returns the acked LSN observed after each frame.
func chaosEpisode(t *testing.T, dir string) []uint64 {
	t.Helper()
	const frames = 40
	srv := startChaosServer(t, dir, "conn.write:at=10:reset;wal.sync:at=20:err=EIO")

	c, err := DialIngestWith(srv.IngestAddr(), chaosClientOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	lsns := make([]uint64, 0, frames)
	for i := 0; i < frames; i++ {
		if err := c.Send([]Edge{{U: uint32(i), V: uint32(i + 1)}}); err != nil {
			t.Fatalf("send frame %d: %v", i, err)
		}
		lsn, err := c.Flush()
		if err != nil {
			t.Fatalf("flush frame %d: %v", i, err)
		}
		lsns = append(lsns, lsn)
	}
	st := c.Stats()
	if err := c.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}
	if st.Reconnects < 1 {
		t.Fatalf("client never reconnected: %+v", st)
	}
	if st.Retransmits < 1 {
		t.Fatalf("client never retransmitted: %+v", st)
	}
	if st.AckedFrames != frames || st.Outstanding != 0 {
		t.Fatalf("window did not drain: %+v", st)
	}

	// The server must have visited degraded and healed: both transitions
	// counted, and health back to ok with writes accepted.
	if v := metricValue(t, srv.Addr(), "connectit_degraded_total"); v < 1 {
		t.Fatalf("connectit_degraded_total = %g, want >= 1", v)
	}
	if v := metricValue(t, srv.Addr(), "connectit_wal_recoveries_total"); v < 1 {
		t.Fatalf("connectit_wal_recoveries_total = %g, want >= 1", v)
	}
	if body := strings.TrimSpace(httpBody(t, "http://"+srv.Addr()+"/healthz")); body != "ok" {
		t.Fatalf("healthz after episode = %q, want ok", body)
	}
	// Every acked union is visible.
	for i := 0; i < frames; i++ {
		if !strings.Contains(httpBody(t, fmt.Sprintf("http://%s/v1/connected?u=0&v=%d", srv.Addr(), i+1)), "true") {
			t.Fatalf("union {%d,%d} lost before restart", i, i+1)
		}
	}
	closeServer(t, srv)

	// Zero acked unions lost: a fresh server recovering from the same WAL
	// still answers every union.
	srv2 := startChaosServer(t, dir, "")
	for i := 0; i < frames; i++ {
		if !strings.Contains(httpBody(t, fmt.Sprintf("http://%s/v1/connected?u=0&v=%d", srv2.Addr(), i+1)), "true") {
			t.Fatalf("union {%d,%d} lost across restart", i, i+1)
		}
	}
	closeServer(t, srv2)
	return lsns
}

// TestSeededChaosDeterministic is the acceptance run: the same seeded
// fault schedule produces the identical acked-LSN sequence on two
// independent runs, the client finishes the load with no intervention,
// and no acked union is lost through the wedge, the reset, or a restart.
func TestSeededChaosDeterministic(t *testing.T) {
	run1 := chaosEpisode(t, t.TempDir())
	run2 := chaosEpisode(t, t.TempDir())
	if !reflect.DeepEqual(run1, run2) {
		t.Fatalf("acked-LSN sequences diverged:\nrun1 %v\nrun2 %v", run1, run2)
	}
	for i := 1; i < len(run1); i++ {
		if run1[i] < run1[i-1] {
			t.Fatalf("acked LSNs not monotone at frame %d: %v", i, run1)
		}
	}
}

// TestIngestClientSurvivesReset exercises the self-healing path in
// isolation: a mid-stream TCP reset with a healthy WAL. The pipelined
// window retransmits and the full load lands.
func TestIngestClientSurvivesReset(t *testing.T) {
	srv := startChaosServer(t, t.TempDir(), "conn.write:at=3:reset")
	defer closeServer(t, srv)

	c, err := DialIngestWith(srv.IngestAddr(), chaosClientOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := c.Send([]Edge{{U: uint32(i), V: uint32(i + 1)}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if _, err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	st := c.Stats()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Reconnects < 1 || st.Retransmits < 1 {
		t.Fatalf("reset not healed: %+v", st)
	}
	if !strings.Contains(httpBody(t, "http://"+srv.Addr()+"/v1/connected?u=0&v=20"), "true") {
		t.Fatal("load incomplete after reset recovery")
	}
}

// TestIngestClientRetryBudget: with no server at all, the client burns its
// attempt budget and surfaces a terminal error instead of spinning.
func TestIngestClientRetryBudget(t *testing.T) {
	_, err := DialIngestWith("127.0.0.1:1", DialIngestOptions{
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})
	if err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("err = %v, want terminal give-up", err)
	}
}

// TestIngestClientRetryDisabled: MaxAttempts < 0 restores one-shot
// semantics — the initial dial gets exactly one try.
func TestIngestClientRetryDisabled(t *testing.T) {
	start := time.Now()
	_, err := DialIngestWith("127.0.0.1:1", DialIngestOptions{Retry: RetryPolicy{MaxAttempts: -1}})
	if err == nil {
		t.Fatal("dial to nothing succeeded")
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("disabled retry still took %v", d)
	}
}
