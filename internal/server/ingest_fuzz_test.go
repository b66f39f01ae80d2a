package server

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"connectit/internal/graph"
	"connectit/internal/wire"
)

// FuzzIngestConn feeds arbitrary client bytes through one TCP ingest
// connection of an in-memory 16-vertex server, over net.Pipe. The
// connection must never panic, everything the server sends back must parse
// as its hello and wire acks, and the server's accepted counter must equal
// the edge count of the frames acked OK.
func FuzzIngestConn(f *testing.F) {
	const n = 16
	hello := []byte(wire.Magic)
	// TestTCPIngestRejectsBadFrames' cases: an out-of-range endpoint and a
	// bad client hello.
	f.Add(wire.AppendFrame(append([]byte(nil), hello...), []graph.Edge{{U: 1, V: n}}))
	f.Add([]byte("NOPE"))
	// One valid pipelined burst: three frames, one of them empty.
	burst := append([]byte(nil), hello...)
	burst = wire.AppendFrame(burst, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	burst = wire.AppendFrame(burst, nil)
	burst = wire.AppendFrame(burst, []graph.Edge{{U: 3, V: 4}, {U: 15, V: 5}, {U: 6, V: 6}})
	f.Add(burst)

	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := New(Options{NumVertices: n})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close(context.Background())
		client, conn := net.Pipe()
		il := &ingestListener{s: s, conns: map[net.Conn]struct{}{conn: {}}}
		il.wg.Add(1)
		go il.serveConn(conn)
		replies := make(chan []byte, 1)
		go func() {
			b, _ := io.ReadAll(client)
			replies <- b
		}()
		// A pipe write returns once the server has read every byte, so the
		// deadline only fails the read that waits for input never coming.
		client.Write(in)
		conn.SetReadDeadline(time.Now())
		il.wg.Wait()
		client.Close()
		out := <-replies

		if len(in) < 4 || string(in[:4]) != wire.Magic {
			if len(out) == 0 || out[0] != wire.AckErr {
				t.Fatalf("bad hello answered %x, want an AckErr", out)
			}
		} else {
			if len(out) < 12 || string(out[:4]) != wire.Magic || binary.LittleEndian.Uint64(out[4:12]) != n {
				t.Fatalf("server hello %x", out)
			}
			out = out[12:]
		}
		var acked uint64
		for len(out) > 0 {
			switch out[0] {
			case wire.AckOK:
				if len(out) < wire.AckSize {
					t.Fatalf("torn AckOK %x", out)
				}
				_, frames := wire.ParseAckOK(out[1:wire.AckSize])
				acked += uint64(frames)
				out = out[wire.AckSize:]
			case wire.AckErr, wire.AckBusy:
				if len(out) < 5 || uint64(len(out)) != 5+uint64(binary.LittleEndian.Uint32(out[1:5])) {
					t.Fatalf("terminal ack %x is not the last reply, or is torn", out)
				}
				out = nil
			default:
				t.Fatalf("reply %x is not an ack", out)
			}
		}

		// The edges of the first acked frames of the input, decoded as the
		// server decodes them.
		var want uint64
		rest := in[min(len(in), 4):]
		for ; acked > 0; acked-- {
			if len(rest) < 4 || uint64(len(rest)-4) < uint64(binary.LittleEndian.Uint32(rest)) {
				t.Fatal("more frames acked than the input holds")
			}
			l := int(binary.LittleEndian.Uint32(rest))
			edges, k, err := wire.DecodeBlock(rest[4:4+l], nil)
			if err != nil || k != l {
				t.Fatalf("acked a frame that does not decode: %v", err)
			}
			want += uint64(len(edges))
			rest = rest[4+l:]
		}
		if got := s.accepted.Value(); got != want {
			t.Fatalf("accepted = %d, want the %d edges of the frames acked OK", got, want)
		}
	})
}
