package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// checkSameGraph fails unless r describes exactly g.
func checkSameGraph(t *testing.T, name string, g *Graph, r Rep) {
	t.Helper()
	if r.NumVertices() != g.NumVertices() || r.NumDirectedEdges() != g.NumDirectedEdges() {
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

// cornerGraphs are the explicit corner cases of the format: empty graphs,
// isolated vertices, and single-vertex stars.
func cornerGraphs() map[string]*Graph {
	return map[string]*Graph{
		"empty":          Build(0, nil),
		"one-isolated":   Build(1, nil),
		"all-isolated":   Build(100, nil),
		"single-star":    Star(2), // one center, one leaf
		"tiny-star":      Star(1), // a star reduced to a single vertex
		"center-only":    Build(6, []Edge{{U: 0, V: 5}}),
		"self-loop-only": Build(3, []Edge{{U: 1, V: 1}}),
	}
}

// TestCBINCornerGraphs round-trips every corner graph through a file.
func TestCBINCornerGraphs(t *testing.T) {
	dir := t.TempDir()
	for name, g := range cornerGraphs() {
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
	}
}

// oldVersions are the .cbin versions the loaders refuse by name: 1 and 2
// code their lists without blocks, and 3 holds a segment table.
var oldVersions = []uint32{1, 2, 3}

// TestCBINRefusesOldVersions: a file whose header says version 1, 2 or 3
// lays its graph out differently, so both loaders must refuse it with
// ErrBadCBIN, naming the version and the way forward, rather than decode it
// as v4.
func TestCBINRefusesOldVersions(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCBIN(&buf, Compress(RMAT(9, 3000, 0.57, 0.19, 0.19, 8))); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(buf.Bytes()[4:8]); v != 4 {
		t.Fatalf("WriteCBIN wrote version %d, want 4", v)
	}
	for _, old := range oldVersions {
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

// shiftOffset moves vertex v's offset in a v4 image up by delta bytes.
func shiftOffset(b []byte, v int, delta uint64) {
	at := cbinHeader + 8*v
	binary.LittleEndian.PutUint64(b[at:], binary.LittleEndian.Uint64(b[at:])+delta)
}

// cbinCorruptions returns a valid image and a corruption of every header
// and index field in it.
func cbinCorruptions(tb testing.TB) ([]byte, []cbinMutation) {
	g := RMAT(9, 3000, 0.57, 0.19, 0.19, 8)
	var buf bytes.Buffer
	if err := WriteCBIN(&buf, Compress(g)); err != nil {
		tb.Fatal(err)
	}
	n := g.NumVertices()
	// The first vertex after 0 whose list has a block header.
	hub := 1
	for hub < n && g.Degree(Vertex(hub)) <= blockSize {
		hub++
	}
	if hub == n {
		tb.Fatal("matrix graph has no list of more than one block")
	}

	// Layout: 32-byte header, offsets (n+1)×u64 at 32, degrees n×u32.
	const offsets = cbinHeader
	degrees := cbinHeader + 8*(n+1)

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
		{"vertex-count-short", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], uint64(n-1))
			return b
		}},
		{"edges-exceed-data", func(b []byte) []byte {
			// A header edge count the degrees cannot account for.
			binary.LittleEndian.PutUint64(b[16:24], 1<<40)
			return b
		}},
		{"data-len-mismatch", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:32], binary.LittleEndian.Uint64(b[24:32])+8)
			return b
		}},
		{"data-len-huge", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:32], 1<<62)
			return b
		}},
		{"offset-span", func(b []byte) []byte {
			// First offset must be 0; a nonzero value breaks the index span.
			binary.LittleEndian.PutUint64(b[offsets:], 7)
			return b
		}},
		{"offset-monotonicity", func(b []byte) []byte {
			// An interior offset past its successor breaks the monotonic index.
			binary.LittleEndian.PutUint64(b[offsets+8*100:], 1<<40)
			return b
		}},
		{"degree-exceeds-span", func(b []byte) []byte {
			// A degree larger than its vertex's byte span cannot decode (every
			// neighbor needs at least one byte); it also breaks the degree sum.
			binary.LittleEndian.PutUint32(b[degrees:], 1<<30)
			return b
		}},
		{"list-shorter-than-its-header", func(b []byte) []byte {
			// The hub's span still holds a byte per neighbor but no longer
			// its block header as well: decoding it would read past its end.
			shiftOffset(b, hub, 4)
			return b
		}},
	}
}

// TestCBINRejectsCorruption corrupts a valid image in every header and index
// field and checks that both loaders reject it with ErrBadCBIN.
func TestCBINRejectsCorruption(t *testing.T) {
	valid, cases := cbinCorruptions(t)
	for _, c := range cases {
		corruptCase(t, valid, c)
	}
}

// FuzzReadCBIN: the streaming reader never panics on arbitrary bytes, every
// failure wraps ErrBadCBIN, and a graph it accepts has exactly the header's
// vertex and directed-edge counts and a byte span for every list that
// holds its block header and a byte per neighbor. The corpus is seeded
// with valid images, every case of the corruption matrix and every refused
// old version. The payload is not decoded: the loaders validate the header
// and index, never the adjacency bytes.
func FuzzReadCBIN(f *testing.F) {
	valid, cases := cbinCorruptions(f)
	f.Add(valid)
	for _, c := range cases {
		f.Add(c.mutate(append([]byte(nil), valid...)))
	}
	for _, old := range oldVersions {
		b := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(b[4:8], old)
		f.Add(b)
	}
	image := func(g *Graph) []byte {
		var buf bytes.Buffer
		if err := WriteCBIN(&buf, Compress(g)); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	corners := cornerGraphs()
	for _, name := range slices.Sorted(maps.Keys(corners)) {
		f.Add(image(corners[name]))
	}
	f.Add(image(Star(40)))
	// Vertex 34 has 33 neighbors, so a two-block list at the end of the
	// data; its offset moved up by 4 leaves a span of a byte per neighbor
	// but no room for its header.
	edges := make([]Edge, 33)
	for i := range edges {
		edges[i] = Edge{U: 34, V: Vertex(i)}
	}
	short := image(Build(35, edges))
	f.Add(slices.Clone(short))
	shiftOffset(short, 34, 4)
	f.Add(short)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadCBIN(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadCBIN) {
				t.Fatalf("error %v does not wrap ErrBadCBIN", err)
			}
			return
		}
		n, m := binary.LittleEndian.Uint64(data[8:16]), binary.LittleEndian.Uint64(data[16:24])
		if uint64(c.NumVertices()) != n || uint64(c.NumDirectedEdges()) != m {
			t.Fatalf("accepted graph n %d 2m %d, header says n %d 2m %d", c.NumVertices(), c.NumDirectedEdges(), n, m)
		}
		for v := range c.NumVertices() {
			deg := c.Degree(Vertex(v))
			if span := c.Offsets[v+1] - c.Offsets[v]; uint64(headerBytes(deg)+deg) > span {
				t.Fatalf("accepted vertex %d of degree %d in a %d-byte span", v, deg, span)
			}
		}
	})
}
