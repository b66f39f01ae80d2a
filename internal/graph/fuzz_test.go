package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"testing"
)

// fuzzEndpoint decodes two fuzz bytes as an endpoint: below n when the top
// bit is clear, else the low 15 bits as they are, which is usually out of
// range.
func fuzzEndpoint(b []byte, n int) Vertex {
	raw := binary.LittleEndian.Uint16(b)
	if raw&0x8000 == 0 && n > 0 {
		return Vertex(raw) % Vertex(n)
	}
	return Vertex(raw & 0x7fff)
}

// FuzzBuild: the first two bytes give n (at most 1024) and the third a
// bucket width and block count; every further four bytes are an edge.
// TryBuild fails exactly when an endpoint is out of range, and otherwise
// equals the sequential reference, as does a build at the forced shape; the
// compressed form's NeighborAt then equals CSR's list at random positions.
func FuzzBuild(f *testing.F) {
	for _, c := range errorLineCases {
		f.Add([]byte(c.in))
	}
	f.Add([]byte{0x40, 0x00, 0x33, 1, 0, 2, 0, 2, 0, 1, 0, 63, 0, 0, 0, 5, 0, 5, 0})
	f.Add(longListSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := int(binary.LittleEndian.Uint16(data)) % 1025
		s, blocks := uint(data[2]%17), 1+int(data[2]/17%7)
		data = data[3:]
		edges := make([]Edge, len(data)/4)
		bad := -1
		for i := range edges {
			edges[i] = Edge{fuzzEndpoint(data[4*i:], n), fuzzEndpoint(data[4*i+2:], n)}
			if bad < 0 && (int(edges[i].U) >= n || int(edges[i].V) >= n) {
				bad = i
			}
		}
		g, err := TryBuild(n, edges)
		if (err != nil) != (bad >= 0) {
			t.Fatalf("n %d: error %v, first bad edge %d", n, err, bad)
		}
		if err != nil {
			if want := fmt.Sprintf("{%d, %d}", edges[bad].U, edges[bad].V); !bytes.Contains([]byte(err.Error()), []byte(want)) {
				t.Fatalf("error %q does not name the first bad edge %s", err, want)
			}
			return
		}
		want := referenceBuild(n, edges)
		sh := shape{bits: s, blocks: blocks, packed: s+uint(bits.Len(uint(max(n-1, 0)))) <= 32}
		forced, err := build(n, edges, sh)
		if err != nil {
			t.Fatalf("%+v: %v", sh, err)
		}
		for _, got := range []*Graph{g, forced} {
			if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Adj, want.Adj) {
				t.Fatalf("n %d, %d edges: CSR differs from the sequential reference", n, len(edges))
			}
		}
		c := Compress(g)
		for v := 0; v < n; v++ {
			nbrs := g.Neighbors(Vertex(v))
			for i := 0; i < 5 && len(nbrs) > 0; i++ {
				p := int(Hash64(uint64(v)<<8^uint64(i)^uint64(len(edges))) % uint64(len(nbrs)))
				if u := c.NeighborAt(Vertex(v), p); u != nbrs[p] {
					t.Fatalf("vertex %d position %d: NeighborAt %d, CSR %d", v, p, u, nbrs[p])
				}
			}
		}
	})
}

// longListSeed is a FuzzBuild input whose forced shape (buckets of one
// vertex, one block) radix-sorts vertex 0's list: 100 neighbours in
// shuffled order among 1500 random edges on 1024 vertices.
func longListSeed() []byte {
	r := newRNG(3)
	data := []byte{0x00, 0x04, 0x00}
	for i := range 1600 {
		u, v := uint16(r.intn(1024)), uint16(r.intn(1024))
		if i%16 == 0 {
			u = 0
		}
		data = binary.LittleEndian.AppendUint16(data, u)
		data = binary.LittleEndian.AppendUint16(data, v)
	}
	return data
}

// FuzzReadEdgeList: the parser never panics, every endpoint it returns is
// below the n it reports, and the edges written back out as "u v" lines
// parse to the same edges and n.
func FuzzReadEdgeList(f *testing.F) {
	for _, c := range errorLineCases {
		f.Add([]byte(c.in))
	}
	f.Add([]byte("0 1\n1 2 extra\n# comment\n% comment\n\n\t3\t4\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		edges, n, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		for _, e := range edges {
			if int(e.U) >= n || int(e.V) >= n {
				t.Fatalf("edge %v outside the reported n %d", e, n)
			}
			fmt.Fprintf(&out, "%d %d\n", e.U, e.V)
		}
		again, n2, err := ReadEdgeList(&out)
		if err != nil || n2 != n || !slices.Equal(again, edges) {
			t.Fatalf("round trip: %d edges n %d err %v, want %d edges n %d", len(again), n2, err, len(edges), n)
		}
	})
}
