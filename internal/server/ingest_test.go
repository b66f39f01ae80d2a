package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"connectit/internal/graph"
	"connectit/internal/wire"
)

func TestRetryAfterDerivedFromPipelineDepth(t *testing.T) {
	s, ts := testServer(t, 16, Options{MaxPendingEpochs: 4})

	// 12 excess epochs at one 250ms flush each = 3s of drain. Both requests
	// are refused before Submit, so no real flush overwrites the injection.
	s.bat.flushNanos.Store(int64(250 * time.Millisecond))
	s.pending = func() int { return 16 }
	resp, _ := postJSON(t, ts.URL+"/v1/update", `{"u":1,"v":2}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want %q (12 excess epochs x 250ms)", got, "3")
	}

	// Barely over the bound: sub-second drain still hints at least 1s.
	s.pending = func() int { return 5 }
	resp, _ = postJSON(t, ts.URL+"/v1/update", `{"u":1,"v":2}`)
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want %q (floor)", got, "1")
	}
}

func postBinary(t *testing.T, url string, edges []graph.Edge) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, wire.ContentTypeEdges, bytes.NewReader(wire.AppendBlock(nil, edges)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body
}

func TestBinaryUpdateHTTP(t *testing.T) {
	s, ts := testServer(t, 64, Options{})

	edges := []graph.Edge{{U: 1, V: 2}, {U: 2, V: 3}, {U: 10, V: 11}}
	resp, body := postBinary(t, ts.URL+"/v1/update", edges)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary update: %d %s", resp.StatusCode, body)
	}
	s.st.Sync()
	if same, _ := s.st.Connected(1, 3); !same {
		t.Fatal("binary-ingested edges not applied")
	}
	if got := s.framesBinary.Value(); got != 1 {
		t.Fatalf("binary frame counter = %d, want 1", got)
	}

	// Malformed block and out-of-range endpoints are both 400s.
	resp, err := http.Post(ts.URL+"/v1/update", wire.ContentTypeEdges, bytes.NewReader([]byte{0x7f, 0x01}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed block: %d, want 400", resp.StatusCode)
	}
	resp, body = postBinary(t, ts.URL+"/v1/update", []graph.Edge{{U: 1, V: 64}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range edge: %d %s, want 400", resp.StatusCode, body)
	}
}

// dialIngest performs the client side of the hello exchange against a
// started server and returns the connection plus the advertised universe.
func dialIngest(t *testing.T, addr string) (net.Conn, uint64) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(wire.Magic)); err != nil {
		t.Fatal(err)
	}
	var hello [12]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		t.Fatal(err)
	}
	if string(hello[:4]) != wire.Magic {
		t.Fatalf("server hello magic = %q", hello[:4])
	}
	return conn, binary.LittleEndian.Uint64(hello[4:])
}

func startedServer(t *testing.T, n int, opt Options) *Server {
	t.Helper()
	opt.Addr = "127.0.0.1:0"
	opt.IngestAddr = "127.0.0.1:0"
	s, err := New(testStream(t, n), opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s
}

func TestTCPIngestFramesAndBatchedAcks(t *testing.T) {
	s := startedServer(t, 128, Options{})
	conn, n := dialIngest(t, s.IngestAddr())
	defer conn.Close()
	if n != 128 {
		t.Fatalf("advertised universe = %d, want 128", n)
	}

	// Pipeline three frames in one write; acks must cover all of them
	// (possibly split across several AckOKs, depending on scheduling).
	var buf []byte
	buf = wire.AppendFrame(buf, []graph.Edge{{U: 1, V: 2}, {U: 2, V: 3}})
	buf = wire.AppendFrame(buf, []graph.Edge{{U: 3, V: 4}})
	buf = wire.AppendFrame(buf, []graph.Edge{{U: 100, V: 101}})
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	acked := uint32(0)
	for acked < 3 {
		var ack [wire.AckSize]byte
		if _, err := io.ReadFull(conn, ack[:]); err != nil {
			t.Fatalf("reading ack after %d frames: %v", acked, err)
		}
		if ack[0] != wire.AckOK {
			t.Fatalf("ack status = 0x%02x", ack[0])
		}
		_, frames := wire.ParseAckOK(ack[1:])
		acked += frames
	}
	if acked != 3 {
		t.Fatalf("acked %d frames, want 3", acked)
	}
	s.st.Sync()
	if same, _ := s.st.Connected(1, 4); !same {
		t.Fatal("TCP-ingested edges not applied")
	}
	if got := s.framesTCP.Value(); got != 3 {
		t.Fatalf("tcp frame counter = %d, want 3", got)
	}
}

func TestTCPIngestRejectsBadFrames(t *testing.T) {
	s := startedServer(t, 16, Options{})

	// Out-of-range endpoint: terminal AckErr, then close.
	conn, _ := dialIngest(t, s.IngestAddr())
	defer conn.Close()
	if _, err := conn.Write(wire.AppendFrame(nil, []graph.Edge{{U: 1, V: 16}})); err != nil {
		t.Fatal(err)
	}
	var status [1]byte
	if _, err := io.ReadFull(conn, status[:]); err != nil || status[0] != wire.AckErr {
		t.Fatalf("status, err = 0x%02x, %v; want AckErr", status[0], err)
	}
	var msgLen [4]byte
	if _, err := io.ReadFull(conn, msgLen[:]); err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, binary.LittleEndian.Uint32(msgLen[:]))
	if _, err := io.ReadFull(conn, msg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(msg), "out of range") {
		t.Fatalf("AckErr message = %q", msg)
	}
	if _, err := conn.Read(status[:]); err != io.EOF {
		t.Fatalf("connection stayed open after AckErr: %v", err)
	}

	// Bad client hello: rejected without a server hello.
	conn2, err := net.Dial("tcp", s.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	conn2.Write([]byte("NOPE"))
	if _, err := io.ReadFull(conn2, status[:]); err != nil || status[0] != wire.AckErr {
		t.Fatalf("bad hello status, err = 0x%02x, %v; want AckErr", status[0], err)
	}
}

func TestMetricsIngestAndWALFamilies(t *testing.T) {
	s, ts := testServer(t, 64, Options{WALDir: t.TempDir()})
	if resp, _ := postJSON(t, ts.URL+"/v1/update", `{"u":1,"v":2}`); resp.StatusCode != 200 {
		t.Fatal("priming JSON update failed")
	}
	if resp, _ := postBinary(t, ts.URL+"/v1/update", []graph.Edge{{U: 3, V: 4}}); resp.StatusCode != 200 {
		t.Fatal("priming binary update failed")
	}

	var buf bytes.Buffer
	s.reg.WriteText(&buf)
	text := buf.String()
	for _, want := range []string{
		"# HELP connectit_ingest_frames_total ",
		"# TYPE connectit_ingest_frames_total counter",
		`connectit_ingest_frames_total{proto="json"} 1`,
		`connectit_ingest_frames_total{proto="binary"} 1`,
		`connectit_ingest_frames_total{proto="tcp"} 0`,
		"# HELP connectit_wal_raw_bytes ",
		"# TYPE connectit_wal_raw_bytes counter",
		"# HELP connectit_wal_written_bytes ",
		"# TYPE connectit_wal_written_bytes counter",
		"connectit_wal_raw_bytes 16",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// One HELP/TYPE block per family, even with three label sets.
	if got := strings.Count(text, "# TYPE connectit_ingest_frames_total"); got != 1 {
		t.Errorf("%d TYPE lines for the frames family, want 1", got)
	}
	// The commit-path stage histograms saw both sequential requests: one
	// wait per Submit, and one WAL append, feed and size sample per group.
	for _, fam := range []string{"wait_seconds", "wal_seconds", "feed_seconds", "group_edges"} {
		name := "connectit_commit_" + fam
		if !strings.Contains(text, "# TYPE "+name+" histogram") {
			t.Errorf("exposition missing the %s family", name)
		}
		if !strings.Contains(text, name+"_count 2\n") {
			t.Errorf("%s_count is not 2 after two sequential updates", name)
		}
	}
	if !strings.Contains(text, `connectit_commit_group_edges_bucket{le="1"} 2`) {
		t.Error("group-size histogram did not file both one-edge groups under le=1")
	}
}

// TestTCPIngestEmptyFrames pins the empty-burst contract: zero-edge blocks
// are valid wire, and a burst of nothing but them must be acked without a
// group commit — Submit on an empty batch used to park the connection
// goroutine on a group flush() never completes, hanging the client and
// deadlocking Server.Close in the listener's wg.Wait.
func TestTCPIngestEmptyFrames(t *testing.T) {
	s := startedServer(t, 16, Options{WALDir: t.TempDir()})
	conn, _ := dialIngest(t, s.IngestAddr())
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	readAcks := func(want uint32) uint64 {
		t.Helper()
		acked, lsn := uint32(0), uint64(0)
		for acked < want {
			var ack [wire.AckSize]byte
			if _, err := io.ReadFull(conn, ack[:]); err != nil {
				t.Fatalf("reading ack after %d/%d frames: %v", acked, want, err)
			}
			if ack[0] != wire.AckOK {
				t.Fatalf("ack status = 0x%02x, want AckOK", ack[0])
			}
			l, frames := wire.ParseAckOK(ack[1:])
			lsn, acked = l, acked+frames
		}
		return lsn
	}

	// An all-empty burst before anything committed acks LSN 0.
	var buf []byte
	buf = wire.AppendFrame(buf, nil)
	buf = wire.AppendFrame(buf, nil)
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	if lsn := readAcks(2); lsn != 0 {
		t.Fatalf("empty-burst ack LSN = %d, want 0 (nothing committed)", lsn)
	}

	// Two real commits (sequential, so they land in separate groups — the
	// first WAL record is LSN 0, indistinguishable from "nothing"), then an
	// empty frame: its ack repeats the last committed LSN rather than
	// regressing to 0.
	if _, err := conn.Write(wire.AppendFrame(nil, []graph.Edge{{U: 1, V: 2}})); err != nil {
		t.Fatal(err)
	}
	first := readAcks(1)
	if _, err := conn.Write(wire.AppendFrame(nil, []graph.Edge{{U: 2, V: 3}})); err != nil {
		t.Fatal(err)
	}
	committed := readAcks(1)
	if committed <= first {
		t.Fatalf("second commit LSN = %d, want > %d", committed, first)
	}
	if _, err := conn.Write(wire.AppendFrame(nil, nil)); err != nil {
		t.Fatal(err)
	}
	if lsn := readAcks(1); lsn != committed {
		t.Fatalf("post-commit empty-frame ack LSN = %d, want %d", lsn, committed)
	}
	if got := s.framesTCP.Value(); got != 5 {
		t.Fatalf("tcp frame counter = %d, want 5 (empty frames count)", got)
	}
}

// oversizedEdges is one more edge than a binary ingest unit may carry; as
// all-zero self-loops it delta-codes at 2 bytes/edge, so the block stays
// far under MaxFrameBytes — the decoded count alone must trip the cap.
func oversizedEdges() []graph.Edge { return make([]graph.Edge, maxRequestEdges+1) }

func TestBinaryUpdateRejectsOversizedBlock(t *testing.T) {
	_, ts := testServer(t, 16, Options{})
	resp, body := postBinary(t, ts.URL+"/v1/update", oversizedEdges())
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized block: %d %s, want 413", resp.StatusCode, body)
	}
}

func TestTCPIngestRejectsOversizedFrame(t *testing.T) {
	s := startedServer(t, 16, Options{})
	conn, _ := dialIngest(t, s.IngestAddr())
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(wire.AppendFrame(nil, oversizedEdges())); err != nil {
		t.Fatal(err)
	}
	var status [1]byte
	if _, err := io.ReadFull(conn, status[:]); err != nil || status[0] != wire.AckErr {
		t.Fatalf("status, err = 0x%02x, %v; want AckErr", status[0], err)
	}
	var msgLen [4]byte
	if _, err := io.ReadFull(conn, msgLen[:]); err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, binary.LittleEndian.Uint32(msgLen[:]))
	if _, err := io.ReadFull(conn, msg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(msg), "exceeds") {
		t.Fatalf("AckErr message = %q, want the edge-bound rejection", msg)
	}
}
