package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkSameGraph fails unless r describes exactly g.
func checkSameGraph(t *testing.T, name string, g *Graph, r Rep) {
	t.Helper()
	if r.NumVertices() != g.NumVertices() || r.NumDirectedEdges() != g.NumDirectedEdges() ||
		r.NumEdges() != g.NumEdges() {
		t.Fatalf("%s: size mismatch: n %d/%d, 2m %d/%d", name,
			r.NumVertices(), g.NumVertices(), r.NumDirectedEdges(), g.NumDirectedEdges())
	}
	var buf []Vertex
	for v := 0; v < g.NumVertices(); v++ {
		want := g.Neighbors(Vertex(v))
		buf = r.NeighborsInto(Vertex(v), buf)
		if r.Degree(Vertex(v)) != len(want) || len(buf) != len(want) {
			t.Fatalf("%s: vertex %d decoded %d neighbors, want %d", name, v, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("%s: vertex %d neighbor %d = %d, want %d", name, v, i, buf[i], want[i])
			}
		}
	}
}

// closeTwice closes r twice — the second call must be a clean no-op on every
// backend, mapped or heap-backed.
func closeTwice(t *testing.T, name string, r Rep) {
	t.Helper()
	c, ok := r.(interface{ Close() error })
	if !ok {
		t.Fatalf("%s: %T has no Close", name, r)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("%s: close: %v", name, err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("%s: double close: %v", name, err)
	}
}

// TestCBINRoundTrip writes every compression-panel graph to .cbin and loads
// it back through both paths: the mmap loader (LoadCBIN) and the streaming
// reader (ReadCBIN).
func TestCBINRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for name, g := range compressPanel() {
		c := Compress(g)
		path := filepath.Join(dir, name+".cbin")
		if err := SaveCBIN(path, c); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}

		mapped, err := LoadCBIN(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if _, ok := mapped.(*CompressedGraph); !ok {
			t.Fatalf("%s: single-segment file loaded as %T, want *CompressedGraph", name, mapped)
		}
		checkSameGraph(t, name+"/mmap", g, mapped)
		closeTwice(t, name, mapped)

		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := ReadCBIN(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		checkSameGraph(t, name+"/stream", g, streamed)
		closeTwice(t, name+"/stream", streamed) // no-op for non-mapped graphs
	}
}

// TestCBINSegmentedRoundTrip saves multi-segment graphs and loads them back
// through both paths, asserting the segmentation itself survives the file.
func TestCBINSegmentedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for name, g := range compressPanel() {
		s, err := TrySegment(g, 64)
		if err != nil {
			t.Fatalf("%s: segment: %v", name, err)
		}
		path := filepath.Join(dir, name+".cbin")
		if err := SaveCBIN(path, s); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}

		mapped, err := LoadCBIN(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if s.NumSegments() > 1 {
			sg, ok := mapped.(*SegmentedGraph)
			if !ok {
				t.Fatalf("%s: %d-segment file loaded as %T, want *SegmentedGraph", name, s.NumSegments(), mapped)
			}
			if sg.NumSegments() != s.NumSegments() {
				t.Fatalf("%s: loaded %d segments, saved %d", name, sg.NumSegments(), s.NumSegments())
			}
		}
		checkSameGraph(t, name+"/mmap", g, mapped)
		closeTwice(t, name, mapped)

		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := ReadCBIN(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		checkSameGraph(t, name+"/stream", g, streamed)
		closeTwice(t, name+"/stream", streamed)
	}
}

// TestCBINCornerGraphs covers the explicit corner cases of the issue:
// empty graphs, isolated vertices, and single-vertex stars.
func TestCBINCornerGraphs(t *testing.T) {
	dir := t.TempDir()
	for name, g := range map[string]*Graph{
		"empty":          Build(0, nil),
		"one-isolated":   Build(1, nil),
		"all-isolated":   Build(100, nil),
		"single-star":    Star(2), // one center, one leaf
		"tiny-star":      Star(1), // a star reduced to a single vertex
		"center-only":    Build(6, []Edge{{U: 0, V: 5}}),
		"self-loop-only": Build(3, []Edge{{U: 1, V: 1}}),
	} {
		c := Compress(g)
		checkSameGraph(t, name+"/compress", g, c)
		path := filepath.Join(dir, name+".cbin")
		if err := SaveCBIN(path, c); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		back, err := LoadCBIN(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		checkSameGraph(t, name+"/load", g, back)
		closeTwice(t, name, back)

		// The same corners through the forced-segmented path: a 1-byte
		// target makes every nonempty adjacency its own segment.
		s, err := TrySegment(g, 1)
		if err != nil {
			t.Fatalf("%s: segment: %v", name, err)
		}
		checkSameGraph(t, name+"/segmented", g, s)
		if err := SaveCBIN(path, s); err != nil {
			t.Fatalf("%s: save segmented: %v", name, err)
		}
		back, err = LoadCBIN(path)
		if err != nil {
			t.Fatalf("%s: load segmented: %v", name, err)
		}
		checkSameGraph(t, name+"/load-segmented", g, back)
		closeTwice(t, name+"/segmented", back)
	}
}

// TestCBINRefusesOldVersions: a file whose header says version 1 or 2 codes
// its lists without blocks, so both loaders must refuse it with ErrBadCBIN,
// naming the version and the way forward, rather than decode it as v3.
func TestCBINRefusesOldVersions(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCBIN(&buf, Compress(RMAT(9, 3000, 0.57, 0.19, 0.19, 8))); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(buf.Bytes()[4:8]); v != 3 {
		t.Fatalf("WriteCBIN wrote version %d, want 3", v)
	}
	for _, old := range []uint32{1, 2} {
		b := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint32(b[4:8], old)
		path := filepath.Join(t.TempDir(), "old.cbin")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, rerr := ReadCBIN(bytes.NewReader(b))
		_, lerr := LoadCBIN(path)
		for name, err := range map[string]error{"ReadCBIN": rerr, "LoadCBIN": lerr} {
			if !errors.Is(err, ErrBadCBIN) {
				t.Fatalf("version %d: %s err = %v, want ErrBadCBIN", old, name, err)
			}
			for _, want := range []string{fmt.Sprintf("version %d", old), "-convert", "DESIGN.md §14"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("version %d: %s err %q does not mention %q", old, name, err, want)
				}
			}
		}
	}
}

// cbinMutation is one named corruption of a valid .cbin image.
type cbinMutation struct {
	name   string
	mutate func(b []byte) []byte
}

// corruptCase runs one corruption mutation against both loaders and requires
// ErrBadCBIN from each.
func corruptCase(t *testing.T, valid []byte, c cbinMutation) {
	t.Helper()
	b := c.mutate(append([]byte(nil), valid...))
	if _, err := ReadCBIN(bytes.NewReader(b)); !errors.Is(err, ErrBadCBIN) {
		t.Fatalf("%s: ReadCBIN err = %v, want ErrBadCBIN", c.name, err)
	}
	path := filepath.Join(t.TempDir(), c.name+".cbin")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCBIN(path); !errors.Is(err, ErrBadCBIN) {
		t.Fatalf("%s: LoadCBIN err = %v, want ErrBadCBIN", c.name, err)
	}
}

// singleSegmentCorruptions returns a valid single-segment image and a
// corruption of every header, table, and index field in it.
func singleSegmentCorruptions(tb testing.TB) ([]byte, []cbinMutation) {
	g := RMAT(9, 3000, 0.57, 0.19, 0.19, 8)
	var buf bytes.Buffer
	if err := WriteCBIN(&buf, Compress(g)); err != nil {
		tb.Fatal(err)
	}

	// Single-segment layout: 32-byte header, one table entry at 32
	// {first, count, dataLen, m}, blob (offsets, degrees, data) at 64.
	const table = cbinHeader
	const blob = cbinHeader + cbinSegEntry

	return buf.Bytes(), []cbinMutation{
		{"bad-magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"bad-version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], 99)
			return b
		}},
		{"short-header", func(b []byte) []byte { return b[:16] }},
		{"truncated-body", func(b []byte) []byte { return b[:len(b)-3] }},
		{"huge-n", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], 1<<60)
			return b
		}},
		{"zero-segments", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:32], 0)
			return b
		}},
		{"absurd-segment-count", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:32], 1<<40)
			return b
		}},
		{"edges-exceed-data", func(b []byte) []byte {
			// Header edge count no segment can account for.
			binary.LittleEndian.PutUint64(b[16:24], 1<<40)
			return b
		}},
		{"segment-not-at-zero", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[table:], 3)
			return b
		}},
		{"segment-count-short", func(b []byte) []byte {
			// The lone segment covers fewer vertices than the header's n.
			c := binary.LittleEndian.Uint64(b[table+8:])
			binary.LittleEndian.PutUint64(b[table+8:], c-1)
			return b
		}},
		{"segment-data-overflow", func(b []byte) []byte {
			// Per-segment data length past the uint32 offset-index cap.
			binary.LittleEndian.PutUint64(b[table+16:], 1<<33)
			return b
		}},
		{"data-len-mismatch", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[table+16:], binary.LittleEndian.Uint64(b[table+16:])+8)
			return b
		}},
		{"segment-edges-exceed-data", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[table+24:], binary.LittleEndian.Uint64(b[table+16:])+1)
			return b
		}},
		{"offset-span", func(b []byte) []byte {
			// First offset must be 0; a nonzero value breaks the index span.
			binary.LittleEndian.PutUint32(b[blob:], 7)
			return b
		}},
		{"offset-monotonicity", func(b []byte) []byte {
			// An interior offset past its successor breaks the monotonic index.
			binary.LittleEndian.PutUint32(b[blob+4*100:], 1<<31)
			return b
		}},
		{"degree-exceeds-span", func(b []byte) []byte {
			// A degree larger than its vertex's byte span cannot decode (every
			// neighbor needs at least one byte); it also breaks the degree sum.
			binary.LittleEndian.PutUint32(b[blob+4*(g.NumVertices()+1):], 1<<30)
			return b
		}},
	}
}

// TestCBINRejectsCorruption corrupts a valid single-segment image in every
// header, table, and index field and checks that both loaders reject it with
// ErrBadCBIN.
func TestCBINRejectsCorruption(t *testing.T) {
	valid, cases := singleSegmentCorruptions(t)
	for _, c := range cases {
		corruptCase(t, valid, c)
	}
}

// multiSegmentCorruptions returns a valid image of at least three segments
// and the segment-table corruptions: truncated segment table, vertex-range
// overlap and gap between segments, and a degree index broken inside a
// non-first segment.
func multiSegmentCorruptions(tb testing.TB) ([]byte, []cbinMutation) {
	g := RMAT(9, 3000, 0.57, 0.19, 0.19, 8)
	s, err := TrySegment(g, 2048)
	if err != nil {
		tb.Fatal(err)
	}
	if s.NumSegments() < 3 {
		tb.Fatalf("panel graph split into %d segments, need >= 3 for the table matrix", s.NumSegments())
	}
	var buf bytes.Buffer
	if err := WriteCBIN(&buf, s); err != nil {
		tb.Fatal(err)
	}
	entry := func(b []byte, i int) []byte { return b[cbinHeader+i*cbinSegEntry:] }

	return buf.Bytes(), []cbinMutation{
		{"truncated-table", func(b []byte) []byte {
			// Cut mid-way through the second table entry.
			return b[:cbinHeader+cbinSegEntry+16]
		}},
		{"segment-overlap", func(b []byte) []byte {
			// Segment 1 re-covers the last vertex of segment 0.
			e := entry(b, 1)
			binary.LittleEndian.PutUint64(e[0:8], binary.LittleEndian.Uint64(e[0:8])-1)
			return b
		}},
		{"segment-gap", func(b []byte) []byte {
			// Segment 1 starts one vertex late, leaving a hole in [0, n).
			e := entry(b, 1)
			binary.LittleEndian.PutUint64(e[0:8], binary.LittleEndian.Uint64(e[0:8])+1)
			return b
		}},
		{"segment-count-overlap", func(b []byte) []byte {
			// Segment 0 claims one vertex more, colliding with segment 1's start.
			e := entry(b, 0)
			binary.LittleEndian.PutUint64(e[8:16], binary.LittleEndian.Uint64(e[8:16])+1)
			return b
		}},
		{"mid-segment-data-overflow", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(entry(b, 1)[16:24], 1<<34)
			return b
		}},
		{"mid-segment-degree-sum", func(b []byte) []byte {
			// Break segment 1's degree array: its sum no longer matches the
			// table's per-segment edge count.
			e := entry(b, 1)
			count := binary.LittleEndian.Uint64(e[8:16])
			blobOff := uint64(cbinHeader) + uint64(s.NumSegments())*cbinSegEntry
			c0 := binary.LittleEndian.Uint64(entry(b, 0)[8:16])
			d0 := binary.LittleEndian.Uint64(entry(b, 0)[16:24])
			blobOff += ((4*(c0+1) + 4*c0 + d0) + 7) &^ 7
			degOff := blobOff + 4*(count+1)
			binary.LittleEndian.PutUint32(b[degOff:], binary.LittleEndian.Uint32(b[degOff:])+1)
			return b
		}},
	}
}

// TestCBINRejectsSegmentTableCorruption runs the multi-segment corruption
// matrix against both loaders.
func TestCBINRejectsSegmentTableCorruption(t *testing.T) {
	valid, cases := multiSegmentCorruptions(t)
	for _, c := range cases {
		corruptCase(t, valid, c)
	}
}

// FuzzReadCBIN: the streaming reader never panics on arbitrary bytes, every
// failure wraps ErrBadCBIN, and a graph it accepts has exactly the header's
// vertex and directed-edge counts. The corpus is seeded with valid single-
// and multi-segment images and every case of both corruption matrices. The
// payload is not decoded: the loaders validate the header, table and index,
// never the adjacency bytes.
func FuzzReadCBIN(f *testing.F) {
	for _, corruptions := range []func(testing.TB) ([]byte, []cbinMutation){singleSegmentCorruptions, multiSegmentCorruptions} {
		valid, cases := corruptions(f)
		f.Add(valid)
		for _, c := range cases {
			f.Add(c.mutate(append([]byte(nil), valid...)))
		}
	}
	var small bytes.Buffer
	if err := WriteCBIN(&small, Compress(Star(40))); err != nil {
		f.Fatal(err)
	}
	f.Add(small.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ReadCBIN(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadCBIN) {
				t.Fatalf("error %v does not wrap ErrBadCBIN", err)
			}
			return
		}
		n, m := binary.LittleEndian.Uint64(data[8:16]), binary.LittleEndian.Uint64(data[16:24])
		if uint64(r.NumVertices()) != n || uint64(r.NumDirectedEdges()) != m {
			t.Fatalf("accepted graph n %d 2m %d, header says n %d 2m %d", r.NumVertices(), r.NumDirectedEdges(), n, m)
		}
	})
}
