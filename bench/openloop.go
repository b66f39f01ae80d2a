package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"connectit/internal/wire"
)

// frameEdges is the size of every open-loop frame.
const frameEdges = 1024

// A step offers a fixed rate for a fixed time. Steps follow each other on
// one connection without a pause.
type step struct {
	edgesPerS float64
	dur       time.Duration
}

// schedule is an open-loop sending plan: frame i is due at due[i] after the
// start, whatever happened to the frames before it.
type schedule struct {
	steps  []step
	due    []time.Duration // per frame
	stepOf []int           // per frame
	ends   []time.Duration // per step
}

func newSchedule(steps []step) *schedule {
	s := &schedule{steps: steps}
	var start time.Duration
	for k, st := range steps {
		gap := time.Duration(float64(frameEdges) / st.edgesPerS * float64(time.Second))
		for d := time.Duration(0); d < st.dur; d += gap {
			s.due = append(s.due, start+d)
			s.stepOf = append(s.stepOf, k)
		}
		start += st.dur
		s.ends = append(s.ends, start)
	}
	return s
}

func (s *schedule) total() time.Duration { return s.ends[len(s.ends)-1] }

// frameResult is one frame's fate. Latency is acked − due: it is counted
// from when the frame should have left, so a stall that delays later frames
// is charged to them (no coordinated omission). late is sent − due, the
// generator's own share of that.
type frameResult struct {
	due, sent, acked time.Duration // since the schedule's start
	ok               bool          // covered by an AckOK
}

func (f frameResult) latency() time.Duration { return f.acked - f.due }
func (f frameResult) late() time.Duration    { return f.sent - f.due }

// ackGrace is how long after the schedule's end the ack reader keeps
// waiting: a frame still unacked then has failed.
const ackGrace = 2 * time.Second

// dialIngest opens a raw connection of the TCP ingest protocol: magic out,
// magic plus universe size back.
func dialIngest(addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	var hello [12]byte
	if _, err = conn.Write([]byte(wire.Magic)); err == nil {
		_, err = io.ReadFull(conn, hello[:])
	}
	if err == nil && string(hello[:4]) != wire.Magic {
		err = fmt.Errorf("bad server hello %q", hello[:4])
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("ingest hello: %w", err)
	}
	conn.SetDeadline(time.Time{})
	return conn, nil
}

// sendOpenLoop writes pre-encoded frames on conn at their due times,
// starting at t0, while a second goroutine reads the batched acks. It
// returns once every frame is acked, the server refuses or drops the
// connection, or ackGrace has passed after the schedule's end; frames
// without an ack by then have ok == false. A late sender does not skip or
// re-time anything: it sends at once and the lateness is in the result.
func sendOpenLoop(conn net.Conn, frames [][]byte, sched *schedule, t0 time.Time) []frameResult {
	res := make([]frameResult, len(frames))
	deadline := t0.Add(sched.total() + ackGrace)
	conn.SetDeadline(deadline)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // ack reader
		defer wg.Done()
		br := bufio.NewReader(conn)
		var msg [wire.AckSize]byte
		for next := 0; next < len(frames); {
			if _, err := io.ReadFull(br, msg[:1]); err != nil || msg[0] != wire.AckOK {
				return // refused (AckErr/AckBusy), dropped, or out of time
			}
			if _, err := io.ReadFull(br, msg[1:]); err != nil {
				return
			}
			now := time.Since(t0)
			_, k := wire.ParseAckOK(msg[1:])
			for end := min(next+int(k), len(frames)); next < end; next++ {
				res[next].acked, res[next].ok = now, true
			}
		}
	}()

	for i, f := range frames {
		res[i].due = sched.due[i]
		if d := time.Until(t0.Add(sched.due[i])); d > 0 {
			time.Sleep(d)
		}
		res[i].sent = time.Since(t0)
		if _, err := conn.Write(f); err != nil {
			for j := i; j < len(frames); j++ {
				res[j].due, res[j].sent = sched.due[j], res[i].sent
			}
			break
		}
	}
	wg.Wait()
	return res
}
