package unionfind

import (
	"sync"
	"testing"

	"connectit/internal/graph"
)

// joinedPairs is the pair list the Joined tests ask about: random pairs,
// mostly in two sets, and the edges already unioned, all in one.
func joinedPairs(n int, unioned [][2]uint32) [][2]uint32 {
	pairs := testEdges(n, 2000, 23)
	for _, e := range unioned {
		pairs = append(pairs, e, [2]uint32{e[1], e[0]})
	}
	return pairs
}

// TestJoinedMatchesFind holds Joined to the finds a union starts with, on
// every variant, with and without witness recording: after a random edge
// prefix, Joined(u, v) equals Find(u) == Find(v) at quiescence, and asking
// never links anything. The forest is left unflattened, so Rem's ascent
// walks and splices real paths; its parents must stay decreasing.
func TestJoinedMatchesFind(t *testing.T) {
	const n = 1500
	prefix := testEdges(n, 1200, 41)
	pairs := joinedPairs(n, prefix)
	for _, v := range Variants() {
		for _, witness := range []bool{false, true} {
			opt := v.Options()
			opt.RecordWitness, opt.WitnessLog = witness, witness
			if Validate(opt) != nil {
				continue
			}
			name := v.Name()
			if witness {
				name += "/witness"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				d := MustNew(n, opt)
				for _, e := range prefix {
					d.Union(e[0], e[1])
				}
				before := make([]uint32, n)
				RootsInto(before, d.Parents())
				edges := d.WitnessEdges(nil)
				logLen := d.WitnessLogLen()

				joined := 0
				for round := 0; round < 3; round++ {
					for _, p := range pairs {
						got := d.Joined(p[0], p[1])
						if want := d.Find(p[0]) == d.Find(p[1]); got != want {
							t.Fatalf("Joined(%d, %d) = %v, Find says %v", p[0], p[1], got, want)
						}
						if got {
							joined++
						}
					}
				}
				if joined == 0 || joined == 3*len(pairs) {
					t.Fatalf("%d of %d answers true: the pairs do not test both answers", joined, 3*len(pairs))
				}

				after := make([]uint32, n)
				RootsInto(after, d.Parents())
				for u := range after {
					if after[u] != before[u] {
						t.Fatalf("Joined moved %d from the set of %d to that of %d", u, before[u], after[u])
					}
				}
				if v.Union == UnionRemCAS || v.Union == UnionRemLock {
					for u, p := range d.Parents() {
						if p > uint32(u) {
							t.Fatalf("parent[%d] = %d: Rem's parents no longer decrease", u, p)
						}
					}
				}
				if got := d.WitnessEdges(nil); len(got) != len(edges) {
					t.Fatalf("Joined changed the witness edges: %d, was %d", len(got), len(edges))
				}
				if got := d.WitnessLogLen(); got != logLen {
					t.Fatalf("Joined appended to the witness log: %d entries, was %d", got, logLen)
				}
				comps := 0
				for u, r := range before {
					if uint32(u) == r {
						comps++
					}
				}
				if got := d.NumComponents(); got != comps {
					t.Fatalf("NumComponents = %d after Joined, %d before", got, comps)
				}
			})
		}
	}
}

// TestJoinedWithStats: a DSU that carries Stats answers false at once, so
// a caller that unions on false counts every union and path as before.
func TestJoinedWithStats(t *testing.T) {
	for _, v := range Variants() {
		opt := v.Options()
		opt.Stats = new(Stats)
		d := MustNew(64, opt)
		for u := uint32(63); u > 0; u-- {
			d.Union(u, u-1)
		}
		unions, tpl, mpl := opt.Stats.Unions(), opt.Stats.TotalPathLength(), opt.Stats.MaxPathLength()
		if d.Joined(0, 63) || d.Joined(5, 5) {
			t.Fatalf("%s: Joined with Stats answered true", v.Name())
		}
		if opt.Stats.Unions() != unions || opt.Stats.TotalPathLength() != tpl || opt.Stats.MaxPathLength() != mpl {
			t.Fatalf("%s: Joined moved the Stats counters", v.Name())
		}
	}
}

// TestJoinedBesideUnions runs Joined beside concurrent unions on every
// variant that allows it (all but Rem + SpliceAtomic, which is
// phase-concurrent): once the unions are done, SameSet must confirm every
// pair Joined answered true for, and the partition must be the oracle's.
func TestJoinedBesideUnions(t *testing.T) {
	const (
		n       = 1 << 10
		workers = 2
	)
	edges := testEdges(n, 700, 57)
	pairs := joinedPairs(n, edges)
	oracle := newSeqDSU(n)
	for _, e := range edges {
		oracle.union(int(e[0]), int(e[1]))
	}
	roots := oracle.roots()
	for _, v := range Variants() {
		if (v.Union == UnionRemCAS || v.Union == UnionRemLock) && v.Splice == SpliceAtomic {
			continue
		}
		t.Run(v.Name(), func(t *testing.T) {
			t.Parallel()
			d := MustNew(n, v.Options())
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(edges); i += workers {
						d.Union(edges[i][0], edges[i][1])
					}
				}(w)
			}
			said := make([][][2]uint32, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := uint64(w) + 1
					for i := 0; i < 4*len(edges); i++ {
						rng = graph.Hash64(rng)
						p := pairs[rng%uint64(len(pairs))]
						if d.Joined(p[0], p[1]) {
							said[w] = append(said[w], p)
						}
					}
				}(w)
			}
			wg.Wait()
			for _, ps := range said {
				for _, p := range ps {
					if !d.SameSet(p[0], p[1]) {
						t.Fatalf("Joined(%d, %d) answered true, SameSet says false", p[0], p[1])
					}
				}
			}
			sameSets(t, v.Name(), d.Labels(), roots)
		})
	}
}
