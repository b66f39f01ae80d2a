package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"connectit/internal/fault"
	"connectit/internal/graph"
	"connectit/internal/wire"
)

// ingestListener serves the persistent binary TCP ingest protocol
// (DESIGN.md §13). Each connection opens with a magic exchange — the
// client sends wire.Magic, the server answers wire.Magic plus the vertex
// universe size — and then carries length-prefixed wire frames. Frames
// pipeline: the server drains every frame already buffered on the socket
// into one group commit and answers with a single batched AckOK carrying
// the commit LSN and the number of frames it covers, so a producer that
// keeps the pipe full pays one ack (and one fsync, via the batcher) per
// burst rather than per frame. Any protocol or validation error is
// answered with a terminal AckErr and the connection closes; backpressure
// is the blocking Submit itself — TCP producers are paced by group-commit
// latency instead of 429s.
type ingestListener struct {
	s  *Server
	ln net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

func newIngestListener(s *Server, addr string) (*ingestListener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	il := &ingestListener{s: s, ln: ln, conns: make(map[net.Conn]struct{})}
	il.wg.Add(1)
	go il.acceptLoop()
	return il, nil
}

func (il *ingestListener) acceptLoop() {
	defer il.wg.Done()
	for {
		conn, err := il.ln.Accept()
		if err != nil {
			return // listener closed
		}
		il.mu.Lock()
		if il.closed {
			il.mu.Unlock()
			conn.Close()
			return
		}
		// Chaos runs wrap every accepted connection with the fault schedule;
		// WrapConn is the identity when no conn.* rules are armed.
		conn = fault.WrapConn(conn, il.s.faults)
		il.conns[conn] = struct{}{}
		il.mu.Unlock()
		il.wg.Add(1)
		go il.serveConn(conn)
	}
}

// Close stops accepting, severs every live connection, and waits for the
// per-connection goroutines to drain. In-flight group commits complete
// through the batcher's own shutdown path.
func (il *ingestListener) Close() {
	il.mu.Lock()
	il.closed = true
	conns := make([]net.Conn, 0, len(il.conns))
	for c := range il.conns {
		conns = append(conns, c)
	}
	il.mu.Unlock()
	il.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	il.wg.Wait()
}

func (il *ingestListener) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		il.mu.Lock()
		delete(il.conns, conn)
		il.mu.Unlock()
		il.wg.Done()
	}()

	br := bufio.NewReaderSize(conn, 64<<10)
	var hello [4]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil || string(hello[:]) != wire.Magic {
		conn.Write(wire.AppendAckErr(nil, "bad client hello"))
		return
	}
	var srvHello [12]byte
	copy(srvHello[:4], wire.Magic)
	binary.LittleEndian.PutUint64(srvHello[4:], uint64(il.s.st.Len()))
	if _, err := conn.Write(srvHello[:]); err != nil {
		return
	}

	// Per-connection scratch: the frame buffer, the decoded batch, and the
	// ack buffer all reach steady-state size and never reallocate again.
	var (
		frame []byte
		batch []graph.Edge
		dec   []graph.Edge
		ack   []byte
	)
	lastLSN := uint64(0)
	for {
		batch = batch[:0]
		frames := uint32(0)
		// Block for the first frame, then drain whatever else the client
		// already pipelined onto the socket into the same commit.
		for {
			var err error
			frame, err = readFrame(br, frame)
			if err != nil {
				if frames == 0 && errors.Is(err, io.EOF) {
					return // clean close between bursts
				}
				conn.Write(wire.AppendAckErr(ack[:0], err.Error()))
				return
			}
			var k int
			dec, k, err = wire.DecodeBlock(frame, dec[:0])
			if err == nil && k != len(frame) {
				err = fmt.Errorf("%w: %d trailing bytes in frame", wire.ErrMalformed, len(frame)-k)
			}
			if err != nil {
				conn.Write(wire.AppendAckErr(ack[:0], err.Error()))
				return
			}
			if len(dec) > maxRequestEdges {
				conn.Write(wire.AppendAckErr(ack[:0], fmt.Sprintf("frame of %d edges exceeds the %d-edge bound", len(dec), maxRequestEdges)))
				return
			}
			if err = il.s.checkRange(dec); err != nil {
				conn.Write(wire.AppendAckErr(ack[:0], err.Error()))
				return
			}
			batch = append(batch, dec...)
			frames++
			if br.Buffered() < 4 || len(batch) >= maxGroupEdges/2 {
				break
			}
		}
		// Degraded or closing: answer the burst with a retryable AckBusy
		// instead of committing (the wedged log would fail the group
		// anyway). The connection closes; a self-healing client backs off,
		// reconnects, and retransmits its unacked window — idempotent
		// unions make the retransmission harmless.
		if st := il.s.State(); st != StateServing {
			conn.Write(wire.AppendAckBusy(ack[:0], "server "+st.String()+"; retry"))
			return
		}
		// An all-empty burst (zero-edge blocks are valid wire) skips the
		// group commit: Submit would have nothing to flush, and the frames
		// still need acking so the client's pipeline window advances. The
		// ack repeats the last committed LSN, keeping it monotonic.
		if len(batch) > 0 {
			lsn, err := il.s.bat.Submit(batch)
			if err != nil {
				// A commit that failed because the server left serving mid-
				// flight (WAL wedge, shutdown) is the same retryable story;
				// only a failure with the server still healthy is terminal.
				if il.s.State() != StateServing {
					conn.Write(wire.AppendAckBusy(ack[:0], err.Error()))
				} else {
					conn.Write(wire.AppendAckErr(ack[:0], err.Error()))
				}
				return
			}
			lastLSN = lsn
			il.s.accepted.Add(uint64(len(batch)))
		}
		il.s.framesTCP.Add(uint64(frames))
		ack = wire.AppendAckOK(ack[:0], lastLSN, frames)
		if _, err := conn.Write(ack); err != nil {
			return
		}
	}
}

// readFrame reads one length-prefixed frame into buf (reusing its
// capacity) and returns the block bytes. io.EOF surfaces only when the
// stream ends cleanly on a frame boundary.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("wire: torn frame header")
		}
		return nil, err
	}
	l := binary.LittleEndian.Uint32(hdr[:])
	if l < 2 || l > wire.MaxFrameBytes {
		return nil, fmt.Errorf("wire: frame length %d outside [2, %d]", l, wire.MaxFrameBytes)
	}
	if cap(buf) < int(l) {
		buf = make([]byte, l)
	} else {
		buf = buf[:l]
	}
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("wire: torn frame body: %w", err)
	}
	return buf, nil
}
