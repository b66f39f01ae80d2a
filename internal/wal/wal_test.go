package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"connectit/internal/graph"
	"connectit/internal/wire"
)

// recEdges generates the deterministic payload for record i, so replay
// results can be checked without keeping an oracle on the side.
func recEdges(i int) []graph.Edge {
	k := 1 + i%5
	edges := make([]graph.Edge, k)
	for j := range edges {
		edges[j] = graph.Edge{U: uint32(i*16 + j), V: uint32(i*16 + j + 1)}
	}
	return edges
}

func appendN(t *testing.T, l *Log, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		lsn, err := l.Append(recEdges(i))
		if err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
		if lsn != uint64(i) {
			t.Fatalf("Append(%d) returned LSN %d", i, lsn)
		}
	}
}

// collect replays everything from `from` and checks LSN contiguity.
func collect(t *testing.T, l *Log, from uint64) map[uint64][]graph.Edge {
	t.Helper()
	got := map[uint64][]graph.Edge{}
	next := from
	err := l.Replay(from, func(lsn uint64, edges []graph.Edge) error {
		if lsn < next {
			t.Fatalf("Replay out of order: got LSN %d after %d", lsn, next)
		}
		next = lsn + 1
		got[lsn] = append([]graph.Edge(nil), edges...)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func checkRecords(t *testing.T, got map[uint64][]graph.Edge, from, to int) {
	t.Helper()
	if len(got) != to-from {
		t.Fatalf("replayed %d records, want %d", len(got), to-from)
	}
	for i := from; i < to; i++ {
		want := recEdges(i)
		have := got[uint64(i)]
		if len(have) != len(want) {
			t.Fatalf("record %d: %d edges, want %d", i, len(have), len(want))
		}
		for j := range want {
			if have[j] != want[j] {
				t.Fatalf("record %d edge %d: got %v want %v", i, j, have[j], want[j])
			}
		}
	}
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256}) // force rotations
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 40)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if got := l2.LSN(); got != 40 {
		t.Fatalf("LSN after reopen = %d, want 40", got)
	}
	checkRecords(t, collect(t, l2, 0), 0, 40)

	// The reopened log must keep appending on the same chain.
	appendN(t, l2, 40, 5)
	checkRecords(t, collect(t, l2, 0), 0, 45)
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	l.Close()

	// Chop bytes off the final (only) segment, mid-record: a torn write.
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if len(segs) != 1 {
		t.Fatalf("expected 1 segment, got %d", len(segs))
	}
	st, _ := os.Stat(segs[0])
	if err := os.Truncate(segs[0], st.Size()-3); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after torn tail: %v", err)
	}
	defer l2.Close()
	// Record 9 was torn; 0..8 survive and the next append takes LSN 9.
	if got := l2.LSN(); got != 9 {
		t.Fatalf("LSN after torn tail = %d, want 9", got)
	}
	checkRecords(t, collect(t, l2, 0), 0, 9)
	appendN(t, l2, 9, 3)
	checkRecords(t, collect(t, l2, 0), 0, 12)
}

func TestCorruptCRCMidSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 40) // several segments at 256B rotation
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	// Flip a payload byte in a non-final segment (glob returns the sorted,
	// zero-padded-hex names, so segs[0] is the oldest).
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[segHeader+recHeader] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{SegmentBytes: 256}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with mid-log corruption: err = %v, want ErrCorrupt", err)
	}
}

func TestSnapshotWithEmptyTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 20)
	// Snapshot covering everything: all sealed segments become garbage.
	if err := l.CommitSnapshot(20, recEdges(0)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatalf("reopen with snapshot + empty tail: %v", err)
	}
	defer l2.Close()
	lsn, path, ok := l2.LatestSnapshot()
	if !ok || lsn != 20 {
		t.Fatalf("LatestSnapshot = (%d, %q, %v), want LSN 20", lsn, path, ok)
	}
	if got := l2.LSN(); got != 20 {
		t.Fatalf("LSN after compacted reopen = %d, want 20", got)
	}
	// Replay from the snapshot floor finds nothing; appends resume at 20.
	if got := collect(t, l2, lsn); len(got) != 0 {
		t.Fatalf("replay from snapshot found %d records, want 0", len(got))
	}
	appendN(t, l2, 20, 4)
	checkRecords(t, collect(t, l2, lsn), 20, 24)
}

func TestCompactionPrunesCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 30)
	before := l.Stats().Segments
	if before < 3 {
		t.Fatalf("expected several segments before compaction, got %d", before)
	}
	if err := l.CommitSnapshot(25, recEdges(0)); err != nil {
		t.Fatal(err)
	}
	after := l.Stats().Segments
	if after >= before {
		t.Fatalf("compaction kept %d segments (was %d)", after, before)
	}
	// Records >= the covered LSN must still replay.
	checkRecords(t, collect(t, l, 25), 25, 30)

	// A second snapshot replaces the first.
	if err := l.CommitSnapshot(30, recEdges(1)); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("expected exactly 1 installed snapshot, got %v", snaps)
	}
}

// TestRandomCrashPoints byte-truncates the final segment at random offsets
// — every possible torn-write crash — and checks the prefix property: the
// recovered log replays exactly the records whose bytes fully survived, in
// order, with no gaps and nothing fabricated.
func TestRandomCrashPoints(t *testing.T) {
	const records = 12
	build := func(dir string) {
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 0, records)
		l.Close()
	}
	master := t.TempDir()
	build(master)
	segs, _ := filepath.Glob(filepath.Join(master, "*.wal"))
	if len(segs) != 1 {
		t.Fatalf("expected 1 segment, got %d", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		// Cuts inside the 16-byte header model a crash mid-rotation: Open
		// discards the headerless file and recovers an empty log.
		cut := rng.Intn(len(data) + 1)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		got := collect(t, l, 0)
		// The survivor count is determined by the cut: records are laid out
		// sequentially, so count full records fitting in data[:cut]. Record
		// size is the header plus the wire block's encoded length — cuts
		// landing inside a varint run are just interior truncations, caught
		// by the length/CRC checks like any other torn byte.
		want := 0
		off := segHeader
		for i := 0; i < records; i++ {
			off += recHeader + len(wire.AppendBlock(nil, recEdges(i)))
			if off <= cut {
				want = i + 1
			} else {
				break
			}
		}
		if len(got) != want {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(got), want)
		}
		checkRecords(t, got, 0, want)
		// Recovery must leave the log appendable at the right LSN.
		appendN(t, l, want, 1)
		l.Close()
	}
}

// TestTornRotationHeaderRepairedOnOpen models a crash between rotate's
// file creation and its 16-byte header write: the final segment is empty or
// holds a short header. Open must discard it and recover the chain — no
// record in it was ever acknowledged — instead of refusing with ErrCorrupt.
func TestTornRotationHeaderRepairedOnOpen(t *testing.T) {
	for _, hdrBytes := range []int{0, 7, segHeader - 1} {
		dir := t.TempDir()
		l, err := Open(dir, Options{SegmentBytes: 256}) // force rotations
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 0, 20)
		l.Close()

		segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
		if len(segs) < 2 {
			t.Fatalf("expected several segments, got %d", len(segs))
		}
		// Truncating the final segment below its header reproduces the
		// torn-rotation on-disk state: earlier segments valid end to end, a
		// tail file whose header never made it down. Survivors are exactly
		// the records the earlier segments hold.
		if err := os.Truncate(segs[len(segs)-1], int64(hdrBytes)); err != nil {
			t.Fatal(err)
		}

		l2, err := Open(dir, Options{SegmentBytes: 256})
		if err != nil {
			t.Fatalf("hdrBytes=%d: Open after torn rotation: %v", hdrBytes, err)
		}
		got := collect(t, l2, 0)
		surviving := len(got)
		if surviving == 0 || surviving >= 20 {
			t.Fatalf("hdrBytes=%d: %d survivors, want a proper non-empty prefix", hdrBytes, surviving)
		}
		checkRecords(t, got, 0, surviving)
		if lsn := l2.LSN(); lsn != uint64(surviving) {
			t.Fatalf("hdrBytes=%d: LSN %d after repair, want %d", hdrBytes, lsn, surviving)
		}
		// The repaired log must accept appends on the same chain.
		appendN(t, l2, surviving, 3)
		checkRecords(t, collect(t, l2, 0), 0, surviving+3)
		l2.Close()
	}
}

// TestTornRotationOnlySegment covers the first-ever rotate crashing before
// the header write: the lone .wal file is headerless and the log must come
// back empty, not corrupt.
func TestTornRotationOnlySegment(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "0000000000000000.wal"), []byte("CW"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open with lone headerless segment: %v", err)
	}
	defer l.Close()
	if lsn := l.LSN(); lsn != 0 {
		t.Fatalf("LSN = %d, want 0", lsn)
	}
	appendN(t, l, 0, 3)
	checkRecords(t, collect(t, l, 0), 0, 3)
}

// TestHeaderlessNonFinalSegmentStaysCorrupt pins the contract boundary: the
// torn-rotation repair applies to the final segment only — a headerless
// segment in the middle of the chain cannot be explained by a crash and
// must still refuse to boot.
func TestHeaderlessNonFinalSegmentStaysCorrupt(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 40)
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	if err := os.Truncate(segs[0], 5); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 256}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with headerless non-final segment: err = %v, want ErrCorrupt", err)
	}
}

// TestAppendFailureWedgesLog forces a write error (closed fd) and checks
// the fail-stop contract: the failing Append errors, and every subsequent
// Append refuses rather than appending past the possible partial garbage.
func TestAppendFailureWedgesLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 5)

	// Sabotage the segment fd so the next write fails like EIO would.
	l.mu.Lock()
	l.f.Close()
	l.mu.Unlock()

	if _, err := l.Append(recEdges(5)); err == nil {
		t.Fatal("Append on a dead fd succeeded")
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(recEdges(5)); err == nil {
			t.Fatal("Append accepted after a failed append (log not wedged)")
		}
	}
	l.Close()

	// Recovery sees exactly the acknowledged prefix.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after wedge: %v", err)
	}
	defer l2.Close()
	if lsn := l2.LSN(); lsn != 5 {
		t.Fatalf("LSN after wedge+reopen = %d, want 5", lsn)
	}
	checkRecords(t, collect(t, l2, 0), 0, 5)
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	if _, err := l.Append(recEdges(0)); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}

// appendRecord writes one raw record (header + payload + CRC) to the end
// of a segment file, bypassing the Log — the corruption matrix uses it to
// craft states no writer produces.
func appendRecord(t *testing.T, path string, payload []byte) {
	t.Helper()
	rec := make([]byte, 0, recHeader+len(payload))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(payload, castagnoli))
	rec = append(rec, payload...)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// copyDir copies every file of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompressionRatioObservable pins the tentpole's WAL claim: sorted and
// locality-heavy batches must cost measurably fewer than 8 payload bytes
// per edge, with the ratio visible in Stats.
func TestCompressionRatioObservable(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	edges := make([]graph.Edge, 4096)
	for i := range edges {
		u := uint32(i * 3)
		edges[i] = graph.Edge{U: u, V: u + 1 + uint32(i%16)}
	}
	if _, err := l.Append(edges); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.RawBytes != uint64(8*len(edges)) {
		t.Fatalf("RawBytes = %d, want %d", st.RawBytes, 8*len(edges))
	}
	if st.WrittenBytes >= st.RawBytes {
		t.Fatalf("no compression: wrote %d payload bytes for %d raw", st.WrittenBytes, st.RawBytes)
	}
	if perEdge := float64(st.WrittenBytes) / float64(len(edges)); perEdge >= 4 {
		t.Fatalf("sorted batch cost %.2f bytes/edge in the WAL, want < 4", perEdge)
	}
	checkEq := collect(t, l, 0)
	if len(checkEq[0]) != len(edges) {
		t.Fatalf("replayed %d edges, want %d", len(checkEq[0]), len(edges))
	}
	for i := range edges {
		if checkEq[0][i] != edges[i] {
			t.Fatalf("edge %d: %v != %v", i, checkEq[0][i], edges[i])
		}
	}
}

// TestV2CorruptionMatrix extends the CRC-corruption contract to compressed
// records: payload damage in a non-final segment refuses to boot, the same
// damage in the final segment is torn-tail repaired to the exact prefix,
// and a CRC-valid but unparseable block is ErrCorrupt even in the final
// segment (no torn write checksums garbage correctly).
func TestV2CorruptionMatrix(t *testing.T) {
	build := func(t *testing.T, segBytes int) (string, []string) {
		dir := t.TempDir()
		l, err := Open(dir, Options{SegmentBytes: segBytes})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 0, 30)
		l.Close()
		segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
		return dir, segs
	}

	t.Run("payload-flip-non-final", func(t *testing.T) {
		dir, segs := build(t, 128)
		if len(segs) < 3 {
			t.Fatalf("expected several segments, got %d", len(segs))
		}
		data, _ := os.ReadFile(segs[0])
		data[segHeader+recHeader+1] ^= 0xff
		os.WriteFile(segs[0], data, 0o644)
		if _, err := Open(dir, Options{SegmentBytes: 128}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})

	t.Run("truncation-inside-varint-run-final", func(t *testing.T) {
		dir, segs := build(t, 1<<20) // one segment
		if len(segs) != 1 {
			t.Fatalf("expected 1 segment, got %d", len(segs))
		}
		// Chop mid-payload: the cut lands inside the last record's varint
		// run. The record dies (short length), every earlier one survives.
		st, _ := os.Stat(segs[0])
		if err := os.Truncate(segs[0], st.Size()-2); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{SegmentBytes: 1 << 20})
		if err != nil {
			t.Fatalf("Open after varint-run truncation: %v", err)
		}
		defer l.Close()
		if got := l.LSN(); got != 29 {
			t.Fatalf("LSN = %d, want 29 (exact prefix)", got)
		}
		checkRecords(t, collect(t, l, 0), 0, 29)
		appendN(t, l, 29, 2)
		checkRecords(t, collect(t, l, 0), 0, 31)
	})

	t.Run("crc-valid-malformed-block-final", func(t *testing.T) {
		dir, segs := build(t, 1<<20)
		// A record whose CRC verifies over a payload that is not a block:
		// damage with no crash explanation, so even the final segment
		// refuses with ErrCorrupt rather than silently truncating.
		appendRecord(t, segs[len(segs)-1], []byte{0x7f, 0x03, 0x01, 0x02})
		if _, err := Open(dir, Options{SegmentBytes: 1 << 20}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})

	t.Run("crc-flip-final-is-torn-tail", func(t *testing.T) {
		dir, segs := build(t, 1<<20)
		data, _ := os.ReadFile(segs[0])
		data[len(data)-1] ^= 0xff // last payload byte of the last record
		os.WriteFile(segs[0], data, 0o644)
		l, err := Open(dir, Options{SegmentBytes: 1 << 20})
		if err != nil {
			t.Fatalf("Open after final-record flip: %v", err)
		}
		defer l.Close()
		checkRecords(t, collect(t, l, 0), 0, 29)
	})
}

// TestEmptyBlockRecord covers the zero-edge record corner: the writer never
// emits one (Append skips empty batches), but a reader must treat a
// hand-crafted empty block as a valid record occupying one LSN, not as
// corruption.
func TestEmptyBlockRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 3)
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	empty := wire.AppendBlock(nil, nil)
	appendRecord(t, segs[0], empty)

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open with empty-block record: %v", err)
	}
	defer l2.Close()
	if got := l2.LSN(); got != 4 {
		t.Fatalf("LSN = %d, want 4 (empty record holds LSN 3)", got)
	}
	got := collect(t, l2, 0)
	if len(got) != 4 {
		t.Fatalf("replayed %d records, want 4", len(got))
	}
	for i := 0; i < 3; i++ {
		want := recEdges(i)
		if have := got[uint64(i)]; len(have) != len(want) {
			t.Fatalf("record %d: %d edges, want %d", i, len(have), len(want))
		}
	}
	if edges, ok := got[3]; !ok || len(edges) != 0 {
		t.Fatalf("record 3 = %v (present=%v), want an empty record", edges, ok)
	}
	appendN(t, l2, 4, 2)
	checkRecords(t, collect(t, l2, 4), 4, 6)
}

// TestRandomCrashPointsV2Rotations reruns the byte-truncation sweep over a
// multi-segment v2 log: every cut must recover the exact prefix of fully
// durable records, wherever it lands — header, record header, or inside a
// compressed varint run.
func TestRandomCrashPointsV2Rotations(t *testing.T) {
	const records = 18
	master := t.TempDir()
	l, err := Open(master, Options{SegmentBytes: 192})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, records)
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(master, "*.wal"))
	if len(segs) < 2 {
		t.Fatalf("expected rotations, got %d segments", len(segs))
	}
	lastData, err := os.ReadFile(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		cut := rng.Intn(len(lastData) + 1)
		dir := t.TempDir()
		copyDir(t, master, dir)
		if err := os.Truncate(filepath.Join(dir, filepath.Base(segs[len(segs)-1])), int64(cut)); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{SegmentBytes: 192})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		got := collect(t, l, 0)
		want := len(got) // prefix property: recovered set must be a prefix
		checkRecords(t, got, 0, want)
		if lsn := l.LSN(); lsn != uint64(want) {
			t.Fatalf("cut=%d: LSN %d after %d survivors", cut, lsn, want)
		}
		appendN(t, l, want, 1)
		l.Close()
	}
}

// TestOpenRefusesPreBreakDirectories: a .cbin snapshot or a version-1
// segment predates the format break DESIGN.md §11 records. Open must refuse
// the directory, naming the file, rather than boot without its state.
func TestOpenRefusesPreBreakDirectories(t *testing.T) {
	refuses := func(t *testing.T, dir, file string) {
		t.Helper()
		l, err := Open(dir, Options{})
		if err == nil {
			l.Close()
			t.Fatalf("Open booted at LSN %d over %s", l.LSN(), file)
		}
		if !strings.Contains(err.Error(), file) || !strings.Contains(err.Error(), "DESIGN.md §11") {
			t.Fatalf("Open error %q does not name %s and DESIGN.md §11", err, file)
		}
	}

	t.Run("cbin-snapshot", func(t *testing.T) {
		// A compacted directory: the snapshot alone holds the state.
		dir := t.TempDir()
		snap := filepath.Join(dir, "snap-0000000000000014.cbin")
		if err := os.WriteFile(snap, []byte("CBIN\x02\x00\x00\x00"), 0o644); err != nil {
			t.Fatal(err)
		}
		refuses(t, dir, snap)
	})

	t.Run("v1-segment", func(t *testing.T) {
		dir := t.TempDir()
		seg := filepath.Join(dir, "0000000000000000.wal")
		hdr := binary.LittleEndian.AppendUint32([]byte(segMagic), 1)
		if err := os.WriteFile(seg, binary.LittleEndian.AppendUint64(hdr, 0), 0o644); err != nil {
			t.Fatal(err)
		}
		// One raw v1 record: the edge {1, 2} as two little-endian uint32s.
		appendRecord(t, seg, []byte{1, 0, 0, 0, 2, 0, 0, 0})
		refuses(t, dir, seg)
	})
}
