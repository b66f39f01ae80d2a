package unionfind

import (
	"fmt"
	"slices"
	"testing"

	"connectit/internal/graph"
	"connectit/internal/parallel"
)

// sweepTwoPhase is the unsampled CSR finish over ranges contiguous id
// ranges of g: SweepOwned on every range at once, then SweepCSR on each
// range's tail. It returns each range's stop.
func sweepTwoPhase(d *DSU, g *graph.Graph, ranges int) []int {
	n := g.NumVertices()
	bound := func(r int) int { return r * n / ranges }
	stops := make([]int, ranges)
	parallel.ForGrained(ranges, 1, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			stops[r] = d.SweepOwned(bound(r), bound(r+1), g.Offsets, g.Adj)
		}
	})
	parallel.ForGrained(ranges, 1, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			d.SweepCSR(stops[r], bound(r+1), g.Offsets, g.Adj, nil)
		}
	})
	return stops
}

// takesOwned reports whether a DSU with opt runs SweepOwned's private
// phase: Union-Rem-CAS with FindNaive, nothing recorded.
func takesOwned(opt Options) bool {
	return opt.Union == UnionRemCAS && opt.Find == FindNaive && opt.Stats == nil
}

// shuffledGrid is a rows×cols grid whose vertex ids are permuted, so an
// id range holds scattered grid cells.
func shuffledGrid(rows, cols int, seed uint64) *graph.Graph {
	g := graph.Grid2D(rows, cols)
	n := g.NumVertices()
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := int(graph.Hash64(uint64(i)^seed) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(graph.Vertex(v)) {
			if u > uint32(v) {
				edges = append(edges, graph.Edge{U: perm[v], V: perm[u]})
			}
		}
	}
	return graph.Build(n, edges)
}

// TestSweepOwnedParity holds the two-phase sweep to the oracle. For every
// variant, as is and with Stats set (which takes the per-edge unite path),
// SweepOwned runs on all ranges at once and SweepCSR then applies each
// range's tail; the result must be the oracle's partition of the graph,
// and with Stats every edge is counted once. A DSU outside the private
// phase stops every range at its first vertex. Where it is taken, the
// stops follow the graph: on the grid each range but the last stops in
// its last row, and on the grid with shuffled ids the ranges but the last
// stop within their first few vertices, under 1 % of the graph in all (a
// vertex stays only when all of its higher neighbours fall in its range).
// The last range always runs to its end. The path runs ranges of one
// vertex and more ranges than vertices.
func TestSweepOwnedParity(t *testing.T) {
	const rows, cols = 60, 50
	graphs := map[string]*graph.Graph{
		"erdos-renyi":   graph.ErdosRenyi(3000, 5000, 11),
		"grid":          graph.Grid2D(rows, cols),
		"grid/shuffled": shuffledGrid(rows, cols, 7),
		"path":          graph.Build(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}}),
	}
	for name, g := range graphs {
		n := g.NumVertices()
		oracle := newSeqDSU(n)
		for v := 0; v < n; v++ {
			for _, u := range g.Neighbors(graph.Vertex(v)) {
				oracle.union(v, int(u))
			}
		}
		want := oracle.roots()
		for _, ranges := range []int{1, 6, 16} {
			for _, v := range Variants() {
				for _, counted := range []bool{false, true} {
					opt := v.Options()
					var st Stats
					if counted {
						opt.Stats = &st
					}
					id := fmt.Sprintf("%s/ranges=%d/%s/stats=%v", name, ranges, v.Name(), counted)
					d := MustNew(n, opt)
					stops := sweepTwoPhase(d, g, ranges)
					sameSets(t, id, d.Labels(), want)
					if counted && st.Unions() != uint64(g.NumEdges()) {
						t.Fatalf("%s: %d unions, want %d", id, st.Unions(), g.NumEdges())
					}
					early := 0 // vertices the shuffled grid's ranges but the last ran privately
					for r, stop := range stops {
						lo, hi := r*n/ranges, (r+1)*n/ranges
						wantLo, wantHi := lo, hi
						switch {
						case !takesOwned(opt):
							wantHi = lo
						case r == ranges-1:
							wantLo = hi
						case name == "grid" && hi-lo > 2*cols:
							wantLo, wantHi = hi-cols, hi-cols
						case name == "grid/shuffled":
							early += stop - lo
						}
						if stop < wantLo || stop > wantHi {
							t.Fatalf("%s: range %d [%d, %d) stopped at %d, want in [%d, %d]",
								id, r, lo, hi, stop, wantLo, wantHi)
						}
					}
					if early > n/100 {
						t.Fatalf("%s: ranges but the last ran %d vertices privately, want at most %d", id, early, n/100)
					}
				}
			}
		}
	}
}

// TestSweepOwnedStops: SweepOwned applies an edge to hi−1, stops at the
// first vertex with an edge to hi or beyond, runs a last range or an
// edgeless one to hi, and writes no parent outside [lo, hi). On a sorted
// list (graph.Build's) the stop vertex's edges are all left unapplied; on
// an unsorted one its edges before the crossing one are applied, and
// SweepCSR applying them again from the stop gives the full partition.
func TestSweepOwnedStops(t *testing.T) {
	build := func(n int, edges ...graph.Edge) *graph.Graph { return graph.Build(n, edges) }
	for _, c := range []struct {
		name           string
		g              *graph.Graph
		lo, hi, stop   int
		joined, parted [][2]uint32
	}{
		{"edge to hi-1 applied, edge to hi stops", build(5, graph.Edge{U: 0, V: 2}, graph.Edge{U: 1, V: 3}, graph.Edge{U: 1, V: 2}),
			0, 3, 1, [][2]uint32{{0, 2}}, [][2]uint32{{1, 2}}},
		{"first vertex leaves", build(4, graph.Edge{U: 0, V: 3}, graph.Edge{U: 1, V: 2}),
			0, 3, 0, nil, [][2]uint32{{0, 3}, {1, 2}}},
		{"last range", build(5, graph.Edge{U: 0, V: 4}, graph.Edge{U: 2, V: 4}, graph.Edge{U: 3, V: 4}),
			2, 5, 5, [][2]uint32{{2, 3}, {3, 4}}, [][2]uint32{{0, 4}}},
		{"one vertex leaves", build(3, graph.Edge{U: 1, V: 2}), 1, 2, 1, nil, [][2]uint32{{1, 2}}},
		{"one vertex stays", build(3, graph.Edge{U: 0, V: 2}), 1, 2, 2, nil, nil},
		{"empty range", build(3, graph.Edge{U: 0, V: 2}), 1, 1, 1, nil, nil},
		// Vertex 0's list is 1, 3, 2: the crossing edge sits mid-list.
		{"unsorted list", &graph.Graph{Offsets: []uint64{0, 3, 4, 5, 6}, Adj: []uint32{1, 3, 2, 0, 0, 0}},
			0, 3, 0, [][2]uint32{{0, 1}}, [][2]uint32{{0, 2}}},
	} {
		n := c.g.NumVertices()
		for _, rule := range []SpliceOption{SplitAtomicOne, HalveAtomicOne, SpliceAtomic} {
			id := c.name + "/" + rule.String()
			d := MustNew(n, Options{Union: UnionRemCAS, Find: FindNaive, Splice: rule})
			if stop := d.SweepOwned(c.lo, c.hi, c.g.Offsets, c.g.Adj); stop != c.stop {
				t.Fatalf("%s: stopped at %d, want %d", id, stop, c.stop)
			}
			for v, p := range d.Parents() {
				inside := v >= c.lo && v < c.hi
				if !inside && p != uint32(v) || inside && (int(p) < c.lo || int(p) >= c.hi) {
					t.Fatalf("%s: parent[%d] = %d after a sweep of [%d, %d)", id, v, p, c.lo, c.hi)
				}
			}
			for _, e := range c.joined {
				if !d.SameSet(e[0], e[1]) {
					t.Fatalf("%s: %d and %d not joined", id, e[0], e[1])
				}
			}
			for _, e := range c.parted {
				if d.SameSet(e[0], e[1]) {
					t.Fatalf("%s: %d and %d joined", id, e[0], e[1])
				}
			}
			d.SweepCSR(c.stop, n, c.g.Offsets, c.g.Adj, nil)
			d.SweepCSR(0, c.lo, c.g.Offsets, c.g.Adj, nil)
			for v := 0; v < n; v++ {
				for _, u := range c.g.Adj[c.g.Offsets[v]:c.g.Offsets[v+1]] {
					if !d.SameSet(uint32(v), u) {
						t.Fatalf("%s: edge (%d, %d) unapplied after the shared sweep", id, v, u)
					}
				}
			}
		}
	}
}

// TestRootsIntoReusesSharedParent: RootsInto reuses a chunk's last root
// while consecutive vertices share a parent, so it must still equal
// Flatten where runs of vertices share a parent and then change it,
// including back to an earlier parent, to a parent that is a root, and
// across chunk boundaries, and on the forest the two-phase grid sweep
// leaves, whose range roots hang in chains.
func TestRootsIntoReusesSharedParent(t *testing.T) {
	const n = 5*parallel.DefaultGrain + 17
	forests := map[string][]uint32{}
	for _, seed := range []uint64{1, 2, 3} {
		parent := make([]uint32, n)
		prev := uint32(0)
		for i := 0; i < n; {
			h := graph.Hash64(uint64(i) ^ seed<<32)
			run := 1 + int(h%70)
			p := uint32(i) // the run hangs under its own first vertex
			switch {
			case i > 0 && (h>>8)%3 == 0:
				p = uint32((h >> 16) % uint64(i))
			case i > 0 && (h>>8)%3 == 1:
				p = prev
			}
			for j := i; j < min(n, i+run); j++ {
				parent[j] = p
			}
			prev = p
			i += run
		}
		forests[fmt.Sprintf("runs/seed=%d", seed)] = parent
	}
	g := graph.Grid2D(150, 150)
	swept := MustNew(g.NumVertices(), Options{Union: UnionRemCAS, Find: FindNaive, Splice: SplitAtomicOne})
	sweepTwoPhase(swept, g, 8)
	forests["grid/two-phase"] = swept.Parents()

	for name, parent := range forests {
		before := slices.Clone(parent)
		got := make([]uint32, len(parent))
		RootsInto(got, parent)
		if !slices.Equal(parent, before) {
			t.Fatalf("%s: RootsInto wrote parent", name)
		}
		d := MustNew(0, Options{Union: UnionRemCAS, Find: FindNaive, Splice: SplitAtomicOne})
		d.Reset(before)
		d.Flatten()
		for v, want := range d.Parents() {
			if got[v] != want {
				t.Fatalf("%s: RootsInto gave %d the root %d, Flatten %d", name, v, got[v], want)
			}
		}
	}
}
