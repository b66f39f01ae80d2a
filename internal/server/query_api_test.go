package server

// Tests for the forest-backed query endpoints (/v1/path, /v1/component,
// /v1/components?histogram=1): answer shape and correctness, the 501
// capability verdict for forest-incapable algorithms, and query equivalence
// across a crash/recovery cycle.

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"connectit/internal/core"
	"connectit/internal/ingest"
)

func TestServeForestQueries(t *testing.T) {
	const n = 64
	_, ts := testServer(t, n, Options{})

	// A 4-vertex path component {0,1,2,3} and a pair {10,11}.
	resp, _ := postJSON(t, ts.URL+"/v1/update", `{"edges":[[0,1],[1,2],[2,3],[10,11]]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("update: %d", resp.StatusCode)
	}

	resp, m := getJSON(t, ts.URL+"/v1/path?u=0&v=3")
	if resp.StatusCode != 200 || m["connected"] != true {
		t.Fatalf("path(0,3): %d %v", resp.StatusCode, m)
	}
	pairs := m["path"].([]any)
	if len(pairs) == 0 || int(m["length"].(float64)) != len(pairs) {
		t.Fatalf("path(0,3) pairs = %v, length = %v", pairs, m["length"])
	}
	at := float64(0)
	for _, p := range pairs {
		edge := p.([]any)
		if edge[0].(float64) != at {
			t.Fatalf("path(0,3): broken chain at %v (have %v)", edge, at)
		}
		at = edge[1].(float64)
	}
	if at != 3 {
		t.Fatalf("path(0,3) ends at %v", at)
	}

	_, m = getJSON(t, ts.URL+"/v1/path?u=0&v=10")
	if m["connected"] != false || m["length"].(float64) != 0 {
		t.Fatalf("path(0,10) = %v, want disconnected", m)
	}

	resp, _ = getJSON(t, ts.URL+"/v1/path?u=abc&v=1")
	if resp.StatusCode != 400 {
		t.Fatalf("path with bad u: %d, want 400", resp.StatusCode)
	}
	resp, _ = getJSON(t, ts.URL+"/v1/component?v=9999")
	if resp.StatusCode != 400 {
		t.Fatalf("component out of range: %d, want 400", resp.StatusCode)
	}

	resp, m = getJSON(t, ts.URL+"/v1/component?v=2")
	if resp.StatusCode != 200 || m["component"].(float64) != 0 || m["size"].(float64) != 4 {
		t.Fatalf("component(2) = %v, want label 0 size 4", m)
	}

	resp, m = getJSON(t, ts.URL+"/v1/components?histogram=1")
	if resp.StatusCode != 200 {
		t.Fatalf("components?histogram=1: %d", resp.StatusCode)
	}
	mass := 0
	for _, b := range m["histogram"].([]any) {
		bin := b.(map[string]any)
		mass += int(bin["size"].(float64)) * int(bin["count"].(float64))
	}
	if mass != n {
		t.Fatalf("histogram covers %d vertices, want %d", mass, n)
	}
	// n - 4 (path) - 2 (pair) + 2 merged components = n - 4 components.
	if m["components"].(float64) != float64(n-4) {
		t.Fatalf("components = %v, want %d", m["components"], n-4)
	}

	// The per-query metric families register only on forest-capable streams.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, metric := range []string{"connectit_query_forest_edges", "connectit_query_index_edges", "connectit_http_requests_total{handler=\"path\"}"} {
		if !strings.Contains(string(body), metric) {
			t.Fatalf("/metrics is missing %s", metric)
		}
	}
}

// TestServeForestQueriesUnsupported: Rem + SpliceAtomic cannot maintain a
// forest, so the query endpoints answer 501 with the capability verdict
// while the label-based endpoints keep working.
func TestServeForestQueriesUnsupported(t *testing.T) {
	cfg, err := core.ParseConfig("none;uf;rem-cas;naive;splice")
	if err != nil {
		t.Fatal(err)
	}
	inc, err := core.NewIncremental(64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(ingest.New(inc, ingest.Options{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, url := range []string{"/v1/path?u=0&v=1", "/v1/component?v=0", "/v1/components?histogram=1"} {
		resp, m := getJSON(t, ts.URL+url)
		if resp.StatusCode != 501 {
			t.Fatalf("%s: %d, want 501", url, resp.StatusCode)
		}
		if !strings.Contains(m["error"].(string), "unsupported") {
			t.Fatalf("%s error = %v, want the capability verdict", url, m["error"])
		}
	}
	resp, _ := postJSON(t, ts.URL+"/v1/update", `{"u":1,"v":2}`)
	if resp.StatusCode != 200 {
		t.Fatalf("update on splice stream: %d", resp.StatusCode)
	}
	resp, m := getJSON(t, ts.URL+"/v1/components")
	if resp.StatusCode != 200 || m["components"].(float64) != 63 {
		t.Fatalf("plain components on splice stream: %d %v", resp.StatusCode, m)
	}
}

// TestRecoveryForestQueries: after a snapshot, more acknowledged updates,
// and a hard crash, the restarted server rebuilds a live forest (snapshot
// forest + WAL tail replay) whose query answers match an uninterrupted
// oracle — connectivity verdicts, component sizes, and histogram mass.
func TestRecoveryForestQueries(t *testing.T) {
	const n = 256
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(23))
	o := newOracle(n)

	s1, err := New(testStream(t, n), durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	submitRandom(t, s1, o, n, 30, 8, rng)
	if err := s1.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	submitRandom(t, s1, o, n, 15, 8, rng)
	crash(s1)

	s2, err := New(testStream(t, n), durableOptions(dir))
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

	// Oracle component sizes for the size check.
	sizes := make(map[uint32]int)
	for v := uint32(0); v < n; v++ {
		sizes[o.find(v)]++
	}
	comps := len(sizes)

	for i := 0; i < 150; i++ {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		resp, m := getJSON(t, ts.URL+"/v1/path?u="+itoa(u)+"&v="+itoa(v))
		if resp.StatusCode != 200 {
			t.Fatalf("path(%d,%d): %d", u, v, resp.StatusCode)
		}
		want := o.find(u) == o.find(v)
		if m["connected"] != want {
			t.Fatalf("path(%d,%d) connected = %v after recovery, oracle says %v", u, v, m["connected"], want)
		}
		if want && u != v && m["length"].(float64) == 0 {
			t.Fatalf("path(%d,%d): connected pair with empty path", u, v)
		}

		_, m = getJSON(t, ts.URL+"/v1/component?v="+itoa(u))
		if got := int(m["size"].(float64)); got != sizes[o.find(u)] {
			t.Fatalf("component(%d) size = %d after recovery, oracle says %d", u, got, sizes[o.find(u)])
		}
	}

	resp, m := getJSON(t, ts.URL+"/v1/components?histogram=1")
	if resp.StatusCode != 200 || int(m["components"].(float64)) != comps {
		t.Fatalf("components after recovery = %v, oracle says %d", m["components"], comps)
	}
	mass := 0
	for _, b := range m["histogram"].([]any) {
		bin := b.(map[string]any)
		mass += int(bin["size"].(float64)) * int(bin["count"].(float64))
	}
	if mass != n {
		t.Fatalf("histogram covers %d vertices after recovery, want %d", mass, n)
	}
}

func itoa(v uint32) string {
	if v == 0 {
		return "0"
	}
	var buf [10]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
