package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"connectit/internal/core"
	"connectit/internal/graph"
)

// testStream opens the default algorithm's stream for the batcher tests,
// which run without a Server.
func testStream(t *testing.T, n int) *core.Stream {
	t.Helper()
	c, err := core.Compile(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.NewStream(n, core.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// sized is opt serving n vertices: the unsampled algorithm spec names, or
// the default configuration for "".
func sized(n int, spec string, opt Options) Options {
	opt.NumVertices = n
	if spec != "" {
		opt.Spec = "none;" + spec
	}
	return opt
}

// testServer boots an in-memory service with a shutdown hook.
func testServer(t *testing.T, n int, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(sized(n, "", opt))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, m
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, m
}

func TestServeUpdateAndQuery(t *testing.T) {
	_, ts := testServer(t, 100, Options{})

	resp, m := postJSON(t, ts.URL+"/v1/update", `{"u":1,"v":2}`)
	if resp.StatusCode != 200 || m["accepted"].(float64) != 1 {
		t.Fatalf("single update: %d %v", resp.StatusCode, m)
	}
	if m["durable"].(bool) {
		t.Fatal("in-memory server claimed durability")
	}
	resp, m = postJSON(t, ts.URL+"/v1/update", `{"edges":[[2,3],[10,11]]}`)
	if resp.StatusCode != 200 || m["accepted"].(float64) != 2 {
		t.Fatalf("batch update: %d %v", resp.StatusCode, m)
	}

	resp, m = getJSON(t, ts.URL+"/v1/connected?u=1&v=3")
	if resp.StatusCode != 200 || m["connected"] != true {
		t.Fatalf("connected(1,3): %d %v", resp.StatusCode, m)
	}
	_, m = getJSON(t, ts.URL+"/v1/connected?u=1&v=10")
	if m["connected"] != false {
		t.Fatalf("connected(1,10) = %v, want false", m["connected"])
	}

	_, m = getJSON(t, ts.URL+"/v1/components")
	// 100 vertices, two unions of sizes 3 and 2: 100-3 = 97 components.
	if m["components"].(float64) != 97 {
		t.Fatalf("components = %v, want 97", m["components"])
	}

	resp, m = getJSON(t, ts.URL+"/v1/stats")
	if resp.StatusCode != 200 {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	if m["stream"].(map[string]any)["Updates"].(float64) != 3 {
		t.Fatalf("stats.stream.Updates = %v, want 3", m["stream"])
	}
	if _, ok := m["pool"]; !ok {
		t.Fatal("stats missing pool section")
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil || hresp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", err, hresp)
	}
	hresp.Body.Close()
}

func TestServeMetricsExposesEngineCounters(t *testing.T) {
	_, ts := testServer(t, 64, Options{})
	postJSON(t, ts.URL+"/v1/update", `{"u":5,"v":6}`)
	getJSON(t, ts.URL+"/v1/connected?u=5&v=6")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)
	out := buf.String()
	for _, want := range []string{
		"connectit_stream_updates_total 1",
		"connectit_pool_calls_total",
		"connectit_pool_procs",
		`connectit_http_requests_total{handler="update"} 1`,
		`connectit_http_request_seconds_bucket{handler="update",le="+Inf"} 1`,
		"connectit_updates_accepted_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}
}

func TestServeUpdateValidation(t *testing.T) {
	_, ts := testServer(t, 16, Options{})
	cases := []struct {
		body string
		code int
	}{
		{`{"u":1,"v":2}`, 200},
		{`{"u":1}`, 400},                   // v missing
		{`{"u":1,"v":99}`, 400},            // out of range
		{`{"edges":[[1,2],[3,999]]}`, 400}, // batch member out of range
		{`{}`, 400},                        // nothing to do
		{`not json`, 400},
	}
	for _, tc := range cases {
		resp, m := postJSON(t, ts.URL+"/v1/update", tc.body)
		if resp.StatusCode != tc.code {
			t.Fatalf("POST %s: status %d, want %d (%v)", tc.body, resp.StatusCode, tc.code, m)
		}
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/update")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/update: %d, want 405", resp.StatusCode)
	}
	// Bad query params.
	for _, q := range []string{"", "?u=1", "?u=1&v=abc", "?u=1&v=99"} {
		resp, err := http.Get(ts.URL + "/v1/connected" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /v1/connected%s: %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestServeBackpressure(t *testing.T) {
	s, ts := testServer(t, 16, Options{MaxPendingEpochs: 4})
	s.pending = func() int { return 100 } // force the pipeline-behind state

	resp, m := postJSON(t, ts.URL+"/v1/update", `{"u":1,"v":2}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("backpressured update: %d %v, want 429", resp.StatusCode, m)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := s.backpressure.Value(); got != 1 {
		t.Fatalf("backpressure counter = %d, want 1", got)
	}

	s.pending = s.st.PendingEpochs
	if resp, _ := postJSON(t, ts.URL+"/v1/update", `{"u":1,"v":2}`); resp.StatusCode != 200 {
		t.Fatalf("update after backpressure cleared: %d", resp.StatusCode)
	}
}

func TestServeGracefulClose(t *testing.T) {
	s, ts := testServer(t, 16, Options{})
	if resp, _ := postJSON(t, ts.URL+"/v1/update", `{"u":1,"v":2}`); resp.StatusCode != 200 {
		t.Fatal("priming update failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The mux still answers (httptest keeps serving), but mutating and
	// querying endpoints now refuse.
	resp, _ := postJSON(t, ts.URL+"/v1/update", `{"u":3,"v":4}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("update after Close: %d, want 503", resp.StatusCode)
	}
	resp, _ = getJSON(t, ts.URL+"/v1/connected?u=1&v=2")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("connected after Close: %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after Close: %d, want 503", hresp.StatusCode)
	}
}

// TestServerCloseConcurrent races many Closes: the old select/default gate
// on s.closed let two callers both take the default branch and double-close
// the channel (panic). All calls must return cleanly.
func TestServerCloseConcurrent(t *testing.T) {
	s, err := New(sized(16, "", Options{}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Close(ctx); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestBatcherCapsGroupDuringStalledFlush stalls the flush path (fence holds
// flushMu, exactly like a slow fsync) and floods Submits: the in-progress
// group must stop admitting at the hard cap instead of growing toward the
// WAL's record bound, and every capped-out Submit must still complete once
// flushing resumes.
func TestBatcherCapsGroupDuringStalledFlush(t *testing.T) {
	st := testStream(t, 16)
	defer st.Close()
	b := newBatcher(st, nil)
	defer b.Close()
	b.capEdges = 64

	stalled, release := make(chan struct{}), make(chan struct{})
	go b.fence(func() { close(stalled); <-release })
	<-stalled

	const submits, perSubmit = 32, 8 // 256 edges total, 4x the cap
	var wg sync.WaitGroup
	errs := make(chan error, submits)
	for i := 0; i < submits; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			edges := make([]graph.Edge, perSubmit)
			for j := range edges {
				edges[j] = graph.Edge{U: 1, V: 2}
			}
			_, err := b.Submit(edges)
			errs <- err
		}()
	}

	// While the flush is stalled no group can be swapped out, so the cap is
	// the only thing bounding growth. The invariant holds at every instant;
	// sample it while the submitters hammer away.
	deadline := time.After(100 * time.Millisecond)
sample:
	for {
		b.mu.Lock()
		n := len(b.cur.edges)
		b.mu.Unlock()
		if n > b.capEdges+perSubmit-1 {
			t.Fatalf("group grew to %d edges past the %d cap", n, b.capEdges)
		}
		select {
		case <-deadline:
			break sample
		case <-time.After(100 * time.Microsecond):
		}
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
}

func TestStartAddrAndRealListener(t *testing.T) {
	s, err := New(Options{NumVertices: 16, Addr: "127.0.0.1:0"})
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
	url := "http://" + s.Addr()
	if resp, _ := postJSON(t, url+"/v1/update", `{"u":1,"v":2}`); resp.StatusCode != 200 {
		t.Fatalf("update via real listener: %d", resp.StatusCode)
	}
	_, m := getJSON(t, url+"/v1/connected?u=1&v=2")
	if m["connected"] != true {
		t.Fatalf("connected via real listener = %v", m["connected"])
	}
}
