package main

import (
	"bufio"
	"encoding/binary"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"connectit"
	"connectit/internal/wire"
)

// The measuring tools are tested here; bench_test.go runs the workloads.

func TestPickTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		got  float64
	}{
		{110, 90, 90}, // 11 beyond
		{100, 90, 90}, // exactly 10 beyond
		{99, 90, 75},  // 9.9 beyond p90: not enough
		{1000, 99, 99},
		{999, 99, 95},
		{4000, 99, 99}, // never above what was asked for
		{20000, 99.9, 99.9},
		{39, 99, 50}, // under 40 samples there is no tail to report
	} {
		if got := pickTail(c.n, c.want); got != c.got {
			t.Errorf("pickTail(%d, %g) = %g, want %g", c.n, c.want, got, c.got)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 110)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, 90); got != 99 {
		t.Errorf("p90 of 1..110 = %g, want 99 (11 samples beyond)", got)
	}
	if got := percentile(v, 50); got != 55 {
		t.Errorf("p50 of 1..110 = %g, want 55", got)
	}
	if got := percentile(v, 100); got != 110 {
		t.Errorf("p100 = %g, want 110", got)
	}
}

// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25]; of
// [3, 1, 4, 1, 5, 9, 2, 6] it is [1.25, 3.5, 5.75].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	seq := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quartileSpread(seq); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	pi := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if got, want := quartileSpread(pi), (5.75-1.25)/3.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("one value has no spread, got %g", got)
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "a.parent", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "b.left", StartNs: 10, EndNs: 50, Parent: 0},
		{Name: "b.right", StartNs: 30, EndNs: 70, Parent: 0}, // overlaps left on [30,50]
		{Name: "c.late", StartNs: 90, EndNs: 130, Parent: 0}, // sticks out: clipped to [90,100]
		{Name: "d.grandchild", StartNs: 12, EndNs: 20, Parent: 1},
	}
	self := selfTimes(spans)
	// The children cover [10,70] and [90,100] of the parent: 70 of 100.
	want := []int64{30, 32, 40, 40, 8}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	by := layerSelfMs(spans)
	if got := by["b"]; math.Abs(got-72e-6) > 1e-12 {
		t.Errorf("layer b self = %g ms, want 72e-6", got)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	d := tr.timed("x.y", -1, 0, func() { time.Sleep(time.Millisecond) })
	if d < time.Millisecond || len(tr.spans) != 0 {
		t.Errorf("off tracer: duration %v, %d spans", d, len(tr.spans))
	}
	tr = newTracer(true)
	root := tr.start("a.b", -1, 7)
	tr.timed("c.d", root, 7, func() {})
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Op != 7 {
		t.Errorf("on tracer recorded %+v", tr.spans)
	}
}

// stubIngest speaks the TCP ingest protocol and acks every frame on its
// own, except that it stops reading for `stall` once, just before frame
// stallAt: a server that hangs, not one that is merely slow per request.
func stubIngest(t *testing.T, stallAt int, stall time.Duration) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		var magic [4]byte
		if _, err := io.ReadFull(br, magic[:]); err != nil {
			return
		}
		hello := append([]byte(wire.Magic), make([]byte, 8)...)
		conn.Write(hello)
		var hdr [4]byte
		for i := 0; ; i++ {
			if i == stallAt {
				time.Sleep(stall)
			}
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				return
			}
			if _, err := io.CopyN(io.Discard, br, int64(binary.LittleEndian.Uint32(hdr[:]))); err != nil {
				return
			}
			conn.Write(wire.AppendAckOK(nil, uint64(i+1), 1))
		}
	}()
	return ln.Addr().String()
}

// The coordinated-omission check: a 50 ms server stall must show up in the
// latency of every frame that was due during it, although each of those
// frames, once the server reads again, is served within microseconds of
// being received. A generator that timed from the send, or that waited for
// the previous ack before sending, would report one slow frame.
func TestOpenLoopChargesAStallToTheFramesDueDuringIt(t *testing.T) {
	const (
		stallAt = 100
		stall   = 50 * time.Millisecond
	)
	addr := stubIngest(t, stallAt, stall)
	conn, err := dialIngest(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One frame per millisecond for 300 ms.
	sched := newSchedule([]step{{edgesPerS: frameEdges * 1000, dur: 300 * time.Millisecond}})
	frame := wire.AppendFrame(nil, []connectit.Edge{{U: 1, V: 2}})
	frames := make([][]byte, len(sched.due))
	for i := range frames {
		frames[i] = frame
	}
	res := sendOpenLoop(conn, frames, sched, time.Now().Add(10*time.Millisecond))

	if len(res) != 300 {
		t.Fatalf("%d frames scheduled, want 300", len(res))
	}
	slow := 0
	for i, f := range res {
		if !f.ok {
			t.Fatalf("frame %d was never acked", i)
		}
		if f.latency() >= stall/2 {
			slow++
		}
	}
	// Frames 100…124 were due in the first half of the stall and so waited
	// at least the second half of it.
	if slow < 20 {
		t.Errorf("%d frames report ≥ %v latency, want the ≥ 20 that were due during the stall", slow, stall/2)
	}
	if got := res[stallAt].latency(); got < stall-5*time.Millisecond {
		t.Errorf("frame %d waited out the whole stall but reports %v", stallAt, got)
	}
	if got := res[stallAt-50].latency(); got > stall/2 {
		t.Errorf("frame %d was acked before the stall but reports %v", stallAt-50, got)
	}
	// The generator itself stayed on schedule: small frames never fill the
	// socket buffer, so lateness stays at timer granularity.
	if late := res[stallAt+10].late(); late > 20*time.Millisecond {
		t.Errorf("generator ran %v late during the stall", late)
	}
}

func TestScheduleStepsFollowEachOther(t *testing.T) {
	s := newSchedule([]step{{frameEdges * 100, 100 * time.Millisecond}, {frameEdges * 200, 100 * time.Millisecond}})
	if len(s.due) != 10+20 {
		t.Fatalf("%d frames, want 30", len(s.due))
	}
	if s.due[10] != 100*time.Millisecond || s.stepOf[9] != 0 || s.stepOf[10] != 1 {
		t.Errorf("step 1 starts at %v (frame 10 in step %d)", s.due[10], s.stepOf[10])
	}
	if s.total() != 200*time.Millisecond {
		t.Errorf("total %v", s.total())
	}
}

func TestReferencePartitionCheck(t *testing.T) {
	edges := []connectit.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}}
	ref := newReference(6, edges)
	if ref.components != 3 || !ref.connected(0, 2) || ref.connected(2, 3) {
		t.Fatalf("reference: %+v", ref)
	}
	if err := ref.checkPartition([]uint32{2, 2, 2, 4, 4, 5}); err != nil {
		t.Errorf("same partition under other labels rejected: %v", err)
	}
	if err := ref.checkPartition([]uint32{2, 2, 2, 2, 2, 5}); err == nil {
		t.Error("merged components accepted")
	}
	if err := ref.checkPartition([]uint32{0, 1, 1, 4, 4, 5}); err == nil {
		t.Error("split component accepted")
	}
	breakRef(ref)
	if ref.components != 6 || ref.connected(0, 1) {
		t.Errorf("breakRef should forget every edge: %+v", ref)
	}
}
