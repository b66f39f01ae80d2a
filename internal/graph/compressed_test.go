package graph

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"connectit/internal/varint"
)

// compressPanel is the graph set the round-trip tests sweep: it covers
// empty graphs, isolated vertices, first-neighbor negative differences
// (zig-zag coding), multi-byte varint gaps, and power-law degree skew.
func compressPanel() map[string]*Graph {
	// A sparse graph over a huge ID space: consecutive-neighbor differences
	// need up to 4 varint bytes, and vertex 1<<22-1's first neighbor (0)
	// encodes as a large negative zig-zag difference.
	wide := Build(1<<22, []Edge{
		{U: 0, V: 1<<22 - 1},
		{U: 5, V: 1 << 21},
		{U: 5, V: 1<<21 + 1},
		{U: 1 << 10, V: 1 << 20},
	})
	return map[string]*Graph{
		"empty":       Build(0, nil),
		"isolated":    Build(17, nil),
		"single-edge": Build(2, []Edge{{U: 0, V: 1}}),
		"self-loops":  Build(5, []Edge{{U: 2, V: 2}, {U: 1, V: 3}}),
		"path":        Path(257),
		"cycle":       Cycle(64),
		"star":        Star(128),
		"cliques":     Cliques(9, 7),
		"grid":        Grid2D(31, 17),
		"rmat":        RMAT(11, 12000, 0.57, 0.19, 0.19, 5),
		"er":          ErdosRenyi(500, 2000, 7),
		"ba":          BarabasiAlbert(400, 6, 8),
		"web":         WebLike(10, 4000, 0.2, 9),
		"wide-ids":    wide,
	}
}

// TestDecodeMatchesNeighbors checks the full-list decode against the plain
// CSR adjacency for every vertex: same neighbors, same ascending order.
func TestDecodeMatchesNeighbors(t *testing.T) {
	for name, g := range compressPanel() {
		c := Compress(g)
		if c.NumVertices() != g.NumVertices() {
			t.Fatalf("%s: NumVertices %d != %d", name, c.NumVertices(), g.NumVertices())
		}
		var got []Vertex
		for v := 0; v < g.NumVertices(); v++ {
			want := g.Neighbors(Vertex(v))
			got = c.NeighborsInto(Vertex(v), got)
			if len(got) != len(want) || int(c.Degrees[v]) != len(want) {
				t.Fatalf("%s: vertex %d decoded %d neighbors, want %d", name, v, len(got), len(want))
			}
			prev := int64(-1)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: vertex %d neighbor %d = %d, want %d", name, v, i, got[i], want[i])
				}
				if int64(got[i]) <= prev {
					t.Fatalf("%s: vertex %d neighbors not strictly ascending at %d", name, v, i)
				}
				prev = int64(got[i])
			}
		}
	}
}

// blockPanel builds a graph whose vertices have every degree the block
// layout distinguishes: 0, 1, B-1, B, B+1, 2B, 2B+1 and a hub of more than
// 10B. Each of those sources sits in the middle of the ID space, with
// neighbors on both sides, so blocks whose first neighbor lies below the
// source code a negative zig-zag difference, and the hub's neighbors are
// spread wide enough to need multi-byte differences.
func blockPanel() (*Graph, []Vertex) {
	const n = 1 << 21
	degrees := []int{0, 1, blockSize - 1, blockSize, blockSize + 1, 2 * blockSize, 2*blockSize + 1, 10*blockSize + 7}
	var edges []Edge
	var sources []Vertex
	for i, d := range degrees {
		v := Vertex((i + 1) << 17) // far enough apart that no source is another's neighbor
		sources = append(sources, v)
		for j := 0; j < d; j++ {
			// Alternate below and above v, striding wider for the hub.
			off := Vertex(1 + j*(1+i*37))
			u := v + off
			if j%2 == 0 {
				u = v - off
			}
			edges = append(edges, Edge{U: v, V: u})
		}
	}
	return Build(n, edges), sources
}

// TestBlockLayout pins the layout: a list of at most B neighbors is one
// block with no header, and a longer one starts with one uint32 offset per
// block after the first, each pointing at a block whose first neighbor is
// coded against the source vertex.
func TestBlockLayout(t *testing.T) {
	g, sources := blockPanel()
	c := Compress(g)
	for _, v := range sources {
		nbrs := g.Neighbors(v)
		d := len(nbrs)
		list := c.Data[c.Offsets[v]:c.Offsets[v+1]]
		blocks := (d + blockSize - 1) / blockSize
		if got := headerBytes(d); got != 4*max(blocks-1, 0) {
			t.Fatalf("degree %d: header %d bytes, want %d", d, got, 4*max(blocks-1, 0))
		}
		for b := 1; b < blocks; b++ {
			at := binary.LittleEndian.Uint32(list[4*(b-1):])
			raw, _ := varint.Get(list[at:])
			if got := Vertex(int64(v) + unzigzag(raw)); got != nbrs[b*blockSize] {
				t.Fatalf("degree %d: block %d starts with %d, want %d", d, b, got, nbrs[b*blockSize])
			}
		}
		if d > 0 && d <= blockSize {
			raw, _ := varint.Get(list)
			if got := Vertex(int64(v) + unzigzag(raw)); got != nbrs[0] {
				t.Fatalf("degree %d: headerless list starts with %d, want %d", d, got, nbrs[0])
			}
		}
	}
}

// TestNeighborAtMatchesNeighborsInto checks the positional decoder against
// the full decode at every position of every block-panel and
// compression-panel vertex: degrees 1, B-1, B, B+1, 2B, 2B+1 and hubs of
// many blocks, so every block boundary and every offset within a block.
func TestNeighborAtMatchesNeighborsInto(t *testing.T) {
	bp, _ := blockPanel()
	graphs := compressPanel()
	graphs["blocks"] = bp
	for name, g := range graphs {
		c := Compress(g)
		var full []Vertex
		for v := 0; v < c.NumVertices(); v++ {
			full = c.NeighborsInto(Vertex(v), full)
			for p, want := range full {
				if got := c.NeighborAt(Vertex(v), p); got != want {
					t.Fatalf("%s: vertex %d of degree %d position %d = %d, want %d", name, v, len(full), p, got, want)
				}
			}
		}
	}
}

// TestNeighborAtPastEndPanics: a position at or past a vertex's degree, or
// below zero, panics, naming the vertex, the position and the degree. The
// compressed backend used to decode the next list's bytes instead and
// return ids outside the graph (on Star(40), vertex 1's position 6 read 48
// and vertex 0's position 44 read 75).
func TestNeighborAtPastEndPanics(t *testing.T) {
	c := Compress(Star(40))
	panicOf := func(f func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f()
		return ""
	}
	for _, tc := range []struct {
		v Vertex
		p int
	}{{1, 1}, {1, 6}, {0, 39}, {0, 44}, {0, -1}} {
		deg := c.Degree(tc.v)
		msg := panicOf(func() { c.NeighborAt(tc.v, tc.p) })
		if msg == "" {
			t.Fatalf("vertex %d of degree %d read position %d without a panic", tc.v, deg, tc.p)
		}
		if want := fmt.Sprintf("position %d of vertex %d is past its degree %d", tc.p, tc.v, deg); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not say %q", msg, want)
		}
	}
}

// TestCompressDecompressRoundTrip checks the full CSR round trip on the
// panel, including offsets consistency of the reconstructed graph.
func TestCompressDecompressRoundTrip(t *testing.T) {
	for name, g := range compressPanel() {
		c := Compress(g)
		back := c.Decompress()
		if back.NumVertices() != g.NumVertices() || back.NumDirectedEdges() != g.NumDirectedEdges() {
			t.Fatalf("%s: round-trip size mismatch: n %d->%d, m %d->%d", name,
				g.NumVertices(), back.NumVertices(), g.NumDirectedEdges(), back.NumDirectedEdges())
		}
		for v := 0; v < g.NumVertices(); v++ {
			a, b := g.Neighbors(Vertex(v)), back.Neighbors(Vertex(v))
			if len(a) != len(b) {
				t.Fatalf("%s: vertex %d degree %d -> %d", name, v, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: vertex %d neighbor %d: %d -> %d", name, v, i, a[i], b[i])
				}
			}
		}
		// A second compression of the reconstruction must be byte-identical:
		// the encoding is canonical for a sorted CSR.
		c2 := Compress(back)
		if len(c2.Data) != len(c.Data) {
			t.Fatalf("%s: re-compression size %d != %d", name, len(c2.Data), len(c.Data))
		}
		for i := range c.Data {
			if c.Data[i] != c2.Data[i] {
				t.Fatalf("%s: re-compression differs at byte %d", name, i)
			}
		}
	}
}

// TestVarintZigzagRoundTrip exercises the codec primitives across the
// boundary values of each varint length class.
func TestVarintZigzagRoundTrip(t *testing.T) {
	var buf [10]byte
	values := []uint64{0, 1, 0x7f, 0x80, 0x3fff, 0x4000, 1<<21 - 1, 1 << 21, 1<<28 - 1, 1 << 28, 1<<63 - 1}
	for _, v := range values {
		k := putVarint(buf[:], v)
		got, n := varint.Get(buf[:k])
		if got != v || n != k {
			t.Fatalf("varint %d: decoded %d (len %d, wrote %d)", v, got, n, k)
		}
	}
	signed := []int64{0, 1, -1, 63, -64, 64, -65, 1 << 30, -(1 << 30), 1<<62 - 1, -(1 << 62)}
	for _, d := range signed {
		if got := unzigzag(zigzag(d)); got != d {
			t.Fatalf("zigzag %d: round-tripped %d", d, got)
		}
	}
}

// TestTryCompressCapExceeded exercises the per-list cap on a slice of
// per-vertex encoded sizes, since a real list past it would be a 4 GiB
// encoding: a size exactly at the cap passes, and the first size beyond it
// is reported by vertex.
func TestTryCompressCapExceeded(t *testing.T) {
	if err := checkListSizes([]uint64{0, 37, maxListBytes, 5}); err != nil {
		t.Fatalf("sizes up to the cap: %v", err)
	}
	err := checkListSizes([]uint64{0, maxListBytes, maxListBytes + 1, 1 << 40})
	if err == nil || !strings.Contains(err.Error(), "vertex 2's encoded list") || !strings.Contains(err.Error(), "per-list cap") {
		t.Fatalf("size past the cap: err = %v, want the per-list cap error naming vertex 2", err)
	}
	g := Path(4096)
	c, err := TryCompress(g)
	if err != nil {
		t.Fatalf("TryCompress under the cap: %v", err)
	}
	checkSameGraph(t, "path", g, c)
}
