package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"connectit/internal/graph"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func getBody(t *testing.T, url string) (int, string) {
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
	return resp.StatusCode, strings.TrimSpace(string(b))
}

// The full degraded-mode episode: a WAL wedge flips the server into
// degraded, reads and health keep serving correct answers, writes refuse
// with Retry-After, and the probe loop recovers the log and promotes back
// to serving — after which writes commit again.
func TestDegradedModeEpisode(t *testing.T) {
	s, ts := testServer(t, 64, Options{
		WALDir: t.TempDir(),
		// The 3rd record sync fails: two updates commit, the third wedges.
		// The truncate rule pins recovery down for ~400 probe ticks so the
		// degraded-phase assertions below aren't racing the probe's
		// self-heal; once it exhausts, recovery succeeds and the server
		// promotes itself.
		FaultSpec:     "wal.sync:at=3:err=EIO;wal.truncate:every=1:limit=400:err=EIO",
		ProbeInterval: 2 * time.Millisecond,
	})

	for _, body := range []string{`{"u":1,"v":2}`, `{"u":2,"v":3}`} {
		if resp, m := postJSON(t, ts.URL+"/v1/update", body); resp.StatusCode != 200 {
			t.Fatalf("healthy update: %d %v", resp.StatusCode, m)
		}
	}
	// The wedging update: its group commit fails, so it must NOT be acked.
	resp, m := postJSON(t, ts.URL+"/v1/update", `{"u":10,"v":11}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("wedging update: %d %v, want 503", resp.StatusCode, m)
	}
	if s.State() != StateDegraded {
		t.Fatalf("state after wedge = %v, want degraded", s.State())
	}
	if s.degradedTotal.Value() != 1 {
		t.Fatalf("degraded transitions = %d, want 1", s.degradedTotal.Value())
	}

	// Degraded serving: health says degraded (200 — the process is alive),
	// reads answer correctly from the in-memory structure, writes refuse
	// with an honest retry hint.
	if code, body := getBody(t, ts.URL+"/healthz"); code != 200 || body != "degraded" {
		t.Fatalf("healthz while degraded: %d %q", code, body)
	}
	if _, m := getJSON(t, ts.URL+"/v1/connected?u=1&v=3"); m["connected"] != true {
		t.Fatalf("connected(1,3) while degraded = %v, want true", m["connected"])
	}
	if _, m := getJSON(t, ts.URL+"/v1/connected?u=1&v=10"); m["connected"] != false {
		// The wedged update's edge must not have leaked into the state.
		t.Fatalf("connected(1,10) while degraded = %v, want false (unacked edge visible)", m["connected"])
	}
	if code, _ := getBody(t, ts.URL+"/metrics"); code != 200 {
		t.Fatalf("metrics while degraded: %d", code)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/update", strings.NewReader(`{"u":10,"v":11}`))
	req.Header.Set("Content-Type", "application/json")
	wresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusServiceUnavailable || wresp.Header.Get("Retry-After") == "" {
		t.Fatalf("write while degraded: %d Retry-After=%q, want 503 with hint", wresp.StatusCode, wresp.Header.Get("Retry-After"))
	}

	// Self-healing: the fault was one-shot, so the next probe recovers the
	// log and promotes.
	waitFor(t, 5*time.Second, func() bool { return s.State() == StateServing }, "promotion back to serving")
	if code, body := getBody(t, ts.URL+"/healthz"); code != 200 || body != "ok" {
		t.Fatalf("healthz after recovery: %d %q", code, body)
	}
	if resp, m := postJSON(t, ts.URL+"/v1/update", `{"u":10,"v":11}`); resp.StatusCode != 200 {
		t.Fatalf("update after recovery: %d %v", resp.StatusCode, m)
	}
	if _, m := getJSON(t, ts.URL+"/v1/connected?u=10&v=11"); m["connected"] != true {
		t.Fatalf("connected(10,11) after recovery = %v, want true", m["connected"])
	}
	st := s.log.Stats()
	if st.Wedges != 1 || st.Recoveries != 1 {
		t.Fatalf("wal stats after episode: wedges=%d recoveries=%d, want 1/1", st.Wedges, st.Recoveries)
	}
}

// The probe loop notices a wedge even when no Submit raced the failure
// (e.g. the wedge came from a background rotation) — the state machine
// converges on the log's health.
func TestProbeDetectsWedgeWithoutSubmit(t *testing.T) {
	s, _ := testServer(t, 16, Options{
		WALDir:        t.TempDir(),
		FaultSpec:     "wal.sync:at=1:err=EIO",
		ProbeInterval: 5 * time.Millisecond,
	})
	// Wedge the log directly, bypassing the batcher's onErr callback.
	if _, err := s.log.Append([]graph.Edge{{U: 1, V: 2}}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("direct append: %v, want EIO", err)
	}
	waitFor(t, 5*time.Second, func() bool { return s.State() != StateServing }, "probe to notice the wedge")
	waitFor(t, 5*time.Second, func() bool { return s.State() == StateServing }, "probe to recover")
}

// DegradeCrash hands the wedge to the crash hook instead of degrading.
func TestDegradedPolicyCrash(t *testing.T) {
	crashed := make(chan error, 1)
	old := crashExit
	crashExit = func(cause error) { crashed <- cause }
	defer func() { crashExit = old }()

	s, ts := testServer(t, 16, Options{
		WALDir:         t.TempDir(),
		FaultSpec:      "wal.sync:at=1:err=EIO",
		DegradedPolicy: DegradeCrash,
	})
	resp, _ := postJSON(t, ts.URL+"/v1/update", `{"u":1,"v":2}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("wedging update: %d, want 503", resp.StatusCode)
	}
	select {
	case cause := <-crashed:
		if !errors.Is(cause, syscall.EIO) {
			t.Fatalf("crash cause %v, want EIO", cause)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("crash policy never invoked the crash hook")
	}
	// The test crash hook doesn't exit, so the server is still around; it
	// must not have counted a degraded transition.
	if s.State() == StateDegraded {
		t.Fatal("crash policy must not fall through to degraded")
	}
}

// The shared-token gate: mutations need the bearer token, reads stay open,
// and mismatches count.
func TestAuthToken(t *testing.T) {
	s, ts := testServer(t, 16, Options{AuthToken: "sesame"})

	post := func(auth string) int {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/update", strings.NewReader(`{"u":1,"v":2}`))
		req.Header.Set("Content-Type", "application/json")
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(""); code != http.StatusUnauthorized {
		t.Fatalf("no token: %d, want 401", code)
	}
	if code := post("Bearer wrong"); code != http.StatusUnauthorized {
		t.Fatalf("wrong token: %d, want 401", code)
	}
	if code := post("sesame"); code != http.StatusUnauthorized {
		t.Fatalf("malformed header: %d, want 401", code)
	}
	if got := s.unauthorized.Value(); got != 3 {
		t.Fatalf("unauthorized counter = %d, want 3", got)
	}
	if code := post("Bearer sesame"); code != http.StatusOK {
		t.Fatalf("right token: %d, want 200", code)
	}
	// Reads, health, and metrics stay open.
	for _, path := range []string{"/v1/connected?u=1&v=2", "/healthz", "/metrics", "/v1/stats"} {
		if code, _ := getBody(t, ts.URL+path); code != 200 {
			t.Fatalf("GET %s without token: %d, want 200", path, code)
		}
	}
}

// New must reject an unparseable fault spec instead of silently arming
// nothing.
func TestBadFaultSpecRejected(t *testing.T) {
	_, err := New(Options{NumVertices: 8, FaultSpec: "wal.sync:bogus"})
	if err == nil {
		t.Fatal("bad fault spec accepted")
	}
}

// Start applies the hardening options to the HTTP server.
func TestHTTPServerHardening(t *testing.T) {
	s, err := New(Options{
		NumVertices:       8,
		Addr:              "127.0.0.1:0",
		ReadHeaderTimeout: 7 * time.Second,
		ReadTimeout:       -1, // disabled
		MaxHeaderBytes:    4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	}()
	hs := s.httpSrv
	if hs.ReadHeaderTimeout != 7*time.Second || hs.ReadTimeout != 0 ||
		hs.IdleTimeout != 2*time.Minute || hs.MaxHeaderBytes != 4096 {
		t.Fatalf("http.Server not hardened: %+v", hs)
	}
	// A header section past MaxHeaderBytes is refused.
	url := fmt.Sprintf("http://%s/healthz", s.Addr())
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("X-Padding", strings.Repeat("x", 8192))
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
			t.Fatalf("oversized header: %d, want 431", resp.StatusCode)
		}
	}
}
