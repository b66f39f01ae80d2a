package unionfind

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"connectit/internal/concurrent"
	"connectit/internal/graph"
	"connectit/internal/parallel"
)

// seqDSU is a trivial sequential union-find used as the test oracle.
type seqDSU struct{ p []int }

func newSeqDSU(n int) *seqDSU {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &seqDSU{p}
}

func (s *seqDSU) find(x int) int {
	for s.p[x] != x {
		s.p[x] = s.p[s.p[x]]
		x = s.p[x]
	}
	return x
}

func (s *seqDSU) union(a, b int) { s.p[s.find(a)] = s.find(b) }

// roots snapshots the oracle's root for every element; the result is
// read-only and safe to share across parallel subtests.
func (s *seqDSU) roots() []int {
	out := make([]int, len(s.p))
	for i := range out {
		out[i] = s.find(i)
	}
	return out
}

// sameSets checks that labels and the oracle roots induce identical
// partitions.
func sameSets(t *testing.T, name string, labels []uint32, oracleRoots []int) {
	t.Helper()
	// map oracle root -> label, must be a bijection on occupied roots.
	fwd := make(map[int]uint32)
	rev := make(map[uint32]int)
	for v := range labels {
		r := oracleRoots[v]
		if l, ok := fwd[r]; ok {
			if l != labels[v] {
				t.Fatalf("%s: vertices in same oracle set have labels %d and %d", name, l, labels[v])
			}
		} else {
			fwd[r] = labels[v]
		}
		if rr, ok := rev[labels[v]]; ok {
			if rr != r {
				t.Fatalf("%s: label %d spans two oracle sets", name, labels[v])
			}
		} else {
			rev[labels[v]] = r
		}
	}
}

func testEdges(n, m int, seed uint64) [][2]uint32 {
	edges := make([][2]uint32, m)
	for i := range edges {
		h := graph.Hash64(uint64(i)*2 + seed)
		edges[i] = [2]uint32{uint32(h % uint64(n)), uint32(graph.Hash64(h) % uint64(n))}
	}
	return edges
}

func TestAllVariantsMatchOracleParallel(t *testing.T) {
	const n = 2000
	const m = 6000
	edges := testEdges(n, m, 99)
	oracle := newSeqDSU(n)
	for _, e := range edges {
		oracle.union(int(e[0]), int(e[1]))
	}
	oracleRoots := oracle.roots()
	for _, v := range Variants() {
		v := v
		t.Run(v.Name(), func(t *testing.T) {
			t.Parallel()
			d := MustNew(n, v.Options())
			if v.Union == UnionRemCAS || v.Union == UnionRemLock {
				// Phase-concurrent: unions only, then flatten.
				parallel.For(m, func(i int) { d.Union(edges[i][0], edges[i][1]) })
			} else {
				// Fully concurrent unions and finds mixed.
				parallel.For(m, func(i int) {
					d.Union(edges[i][0], edges[i][1])
					d.Find(edges[i][0])
				})
			}
			sameSets(t, v.Name(), d.Labels(), oracleRoots)
		})
	}
}

func TestSingleUnionAllVariants(t *testing.T) {
	for _, v := range Variants() {
		d := MustNew(4, v.Options())
		d.Union(0, 1)
		d.Union(2, 3)
		if !d.SameSet(0, 1) || !d.SameSet(2, 3) {
			t.Fatalf("%s: unions not applied", v.Name())
		}
		if d.SameSet(0, 2) {
			t.Fatalf("%s: spurious connectivity", v.Name())
		}
		if d.NumComponents() != 2 {
			t.Fatalf("%s: components = %d, want 2", v.Name(), d.NumComponents())
		}
	}
}

func TestSelfUnionIsNoop(t *testing.T) {
	for _, v := range Variants() {
		d := MustNew(3, v.Options())
		d.Union(1, 1)
		if d.NumComponents() != 3 {
			t.Fatalf("%s: self union changed components", v.Name())
		}
	}
}

func TestInvalidCombinationsRejected(t *testing.T) {
	cases := []Options{
		{Union: UnionRemCAS, Splice: SpliceAtomic, Find: FindCompress},
		{Union: UnionRemLock, Splice: SpliceAtomic, Find: FindCompress},
		{Union: UnionAsync, Find: FindTwoTrySplit},
		{Union: UnionJTB, Find: FindHalve},
		{Union: UnionJTB, Find: FindSplit},
		{Union: UnionJTB, Find: FindCompress},
		{Union: UnionRemCAS, Splice: SpliceAtomic, RecordWitness: true},
		{Union: UnionRemLock, Splice: SpliceAtomic, RecordWitness: true},
	}
	for _, opt := range cases {
		if _, err := New(10, opt); err == nil {
			t.Fatalf("expected rejection for %+v", opt)
		}
	}
}

func TestVariantCountIs36(t *testing.T) {
	vs := Variants()
	if len(vs) != 36 {
		t.Fatalf("variant count = %d, want 36 (paper: 144 = 36 finish × 4 sampling)", len(vs))
	}
	names := make(map[string]bool)
	for _, v := range vs {
		if names[v.Name()] {
			t.Fatalf("duplicate variant name %s", v.Name())
		}
		names[v.Name()] = true
		if _, err := New(4, v.Options()); err != nil {
			t.Fatalf("enumerated variant %s invalid: %v", v.Name(), err)
		}
	}
}

func TestFlattenMakesParentsRoots(t *testing.T) {
	d := MustNew(100, Options{Union: UnionAsync, Find: FindNaive})
	for i := uint32(0); i < 99; i++ {
		d.Union(i, i+1)
	}
	d.Flatten()
	p := d.Parents()
	for i := range p {
		if p[p[i]] != p[i] {
			t.Fatalf("parent of %d is not a root after Flatten", i)
		}
	}
	if d.NumComponents() != 1 {
		t.Fatalf("components = %d, want 1", d.NumComponents())
	}
}

// Independent DSUs flattened from several goroutines at once (one Solver per
// goroutine is a supported use) must not share any state: each holds chains
// of eight, so every vertex must end at the head of its own chain.
func TestFlattenConcurrentIndependentDSUs(t *testing.T) {
	const n, chain, workers, rounds = 300_000, 8, 4, 6
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			labels := make([]uint32, n)
			for round := 0; round < rounds; round++ {
				for i := range labels {
					if i%chain == 0 {
						labels[i] = uint32(i)
					} else {
						labels[i] = uint32(i - 1)
					}
				}
				d, err := NewFromLabels(labels, Options{Union: UnionRemCAS, Find: FindNaive, Splice: SplitAtomicOne})
				if err != nil {
					errs <- err.Error()
					return
				}
				d.Flatten()
				for i, p := range d.Parents() {
					if want := uint32(i - i%chain); p != want {
						errs <- fmt.Sprintf("round %d: parent[%d]=%d want %d", round, i, p, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestWitnessEdgesFormSpanningStructure(t *testing.T) {
	const n = 500
	edges := testEdges(n, 2000, 7)
	for _, v := range ForestVariants() {
		opt := v.Options()
		opt.RecordWitness = true
		d := MustNew(n, opt)
		parallel.For(len(edges), func(i int) {
			d.Union(edges[i][0], edges[i][1])
		})
		comps := d.NumComponents()
		// A spanning forest has exactly n - #components edges.
		ws := d.WitnessEdges(nil)
		if len(ws) != n-comps {
			t.Fatalf("%s: witness edges = %d, want n-comps = %d", v.Name(), len(ws), n-comps)
		}
		// Witness edges must connect exactly the same partition.
		oracle := newSeqDSU(n)
		for _, w := range ws {
			if oracle.find(int(w.U)) == oracle.find(int(w.V)) {
				t.Fatalf("%s: witness edges contain a cycle", v.Name())
			}
			oracle.union(int(w.U), int(w.V))
		}
		sameSets(t, v.Name(), d.Labels(), oracle.roots())
	}
}

// buildDeepChain creates a DSU whose tree is a single path of length n-1
// (descending unions always link a fresh root, so no compression occurs
// during construction for any find rule).
func buildDeepChain(n int, f FindOption, s *Stats) *DSU {
	d := MustNew(n, Options{Union: UnionAsync, Find: f, Stats: s})
	for i := n - 2; i >= 0; i-- {
		d.Union(uint32(i), uint32(i+1))
	}
	return d
}

func TestStatsInstrumentation(t *testing.T) {
	const n = 1000
	var s Stats
	d := buildDeepChain(n, FindNaive, &s)
	if s.Unions() != n-1 {
		t.Fatalf("unions = %d, want %d", s.Unions(), n-1)
	}
	s.Reset()
	if s.TotalPathLength() != 0 || s.Unions() != 0 {
		t.Fatal("Reset did not clear counters")
	}
	// Two full sweeps of finds over the deep chain: naive pays the full
	// depth every time, compress pays it once.
	for pass := 0; pass < 2; pass++ {
		for v := 0; v < n; v++ {
			d.Find(uint32(v))
		}
	}
	naiveTPL := s.TotalPathLength()
	if naiveTPL == 0 {
		t.Fatal("TPL should be nonzero for a deep chain")
	}
	if s.MaxPathLength() == 0 || s.MaxPathLength() > naiveTPL {
		t.Fatalf("MPL %d inconsistent with TPL %d", s.MaxPathLength(), naiveTPL)
	}
	var s2 Stats
	d2 := buildDeepChain(n, FindCompress, &s2)
	s2.Reset()
	for pass := 0; pass < 2; pass++ {
		for v := 0; v < n; v++ {
			d2.Find(uint32(v))
		}
	}
	if s2.TotalPathLength() >= naiveTPL {
		t.Fatalf("FindCompress TPL %d >= FindNaive TPL %d", s2.TotalPathLength(), naiveTPL)
	}
}

func TestNilStatsSafe(t *testing.T) {
	var s *Stats
	s.observe(3)
	s.addUnion()
	s.Reset()
	if s.TotalPathLength() != 0 || s.MaxPathLength() != 0 || s.Unions() != 0 {
		t.Fatal("nil Stats should read as zero")
	}
}

func TestQuickPartitionEquivalence(t *testing.T) {
	// Property: for random edge sets, every variant's partition equals the
	// oracle partition.
	f := func(raw []uint16, seed uint16) bool {
		const n = 64
		edges := make([][2]uint32, 0, len(raw))
		for _, r := range raw {
			edges = append(edges, [2]uint32{uint32(r) % n, uint32(r>>8) % n})
		}
		oracle := newSeqDSU(n)
		for _, e := range edges {
			oracle.union(int(e[0]), int(e[1]))
		}
		variants := Variants()
		v := variants[int(seed)%len(variants)]
		d := MustNew(n, v.Options())
		for _, e := range edges {
			d.Union(e[0], e[1])
		}
		labels := d.Labels()
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if (oracle.find(a) == oracle.find(b)) != (labels[a] == labels[b]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSameSetUnderConcurrentUnions(t *testing.T) {
	// SameSet must never report false for pairs united before the call.
	const n = 1 << 12
	d := MustNew(n, Options{Union: UnionAsync, Find: FindSplit})
	parallel.For(n-1, func(i int) {
		d.Union(uint32(i), uint32(i+1))
		if !d.SameSet(uint32(i), uint32(i+1)) {
			t.Errorf("SameSet(%d,%d) = false after union", i, i+1)
		}
	})
	if d.NumComponents() != 1 {
		t.Fatalf("components = %d, want 1", d.NumComponents())
	}
}

func TestWitnessPacking(t *testing.T) {
	opt := Options{Union: UnionRemCAS, Splice: SplitAtomicOne, RecordWitness: true}
	d := MustNew(4, opt)
	d.Union(2, 3)
	found := false
	for v := uint32(0); v < 4; v++ {
		if w, ok := d.Witness(v); ok {
			u, x := concurrent.Unpack(w)
			if u != 2 || x != 3 {
				t.Fatalf("witness = (%d,%d), want (2,3)", u, x)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no witness recorded")
	}
}

func TestLargeChainAllFinds(t *testing.T) {
	// Exercises deep paths through every find rule.
	const n = 50_000
	for _, f := range []FindOption{FindNaive, FindSplit, FindHalve, FindCompress} {
		d := MustNew(n, Options{Union: UnionAsync, Find: f})
		for i := uint32(0); i+1 < n; i++ {
			d.Union(i, i+1)
		}
		if r := d.Find(n - 1); r != d.Find(0) {
			t.Fatalf("find %v: roots differ", f)
		}
		if d.NumComponents() != 1 {
			t.Fatalf("find %v: not one component", f)
		}
	}
}

// TestSweepKernelParity holds the sweep kernels to one behaviour. For every
// variant, each kernel below runs over one random graph in concurrent
// chunks of 64 vertices, once on the variant as is (Rem-CAS takes the
// call-free ascent) and once with Stats set (the per-edge unite path). Both
// runs must give the oracle's partition of the edges the kernel is defined
// to apply, and the instrumented run must count exactly those edges. The
// kernels are UnionNeighbors per list with from = 0 (every entry) and with
// the sweep's from = v+1 (one union per undirected edge), SweepCSR with and
// without a skip vector (an edge into a skipped vertex is applied by its
// unskipped side, whatever the ids), and KOutCSR with one lead position and
// two random picks.
func TestSweepKernelParity(t *testing.T) {
	const n = 3000
	const k, lead, seed = 3, 1, 5
	g := graph.ErdosRenyi(n, 5000, 11)
	skip := make([]bool, n)
	for v := range skip {
		skip[v] = graph.Hash64(uint64(v))%4 == 0
	}
	// sweepEdges lists, per vertex, the neighbours the finish sweep applies.
	sweepEdges := func(v int, skip []bool) []uint32 {
		var out []uint32
		if skip != nil && skip[v] {
			return nil
		}
		for _, u := range g.Neighbors(graph.Vertex(v)) {
			if u > uint32(v) || (skip != nil && skip[u]) {
				out = append(out, u)
			}
		}
		return out
	}
	kernels := []struct {
		name  string
		edges func(v int) []uint32 // the neighbours of v the kernel applies
		run   func(d *DSU, lo, hi int)
	}{
		{"lists/from=0", func(v int) []uint32 { return g.Neighbors(graph.Vertex(v)) },
			func(d *DSU, lo, hi int) {
				for v := lo; v < hi; v++ {
					d.UnionNeighbors(uint32(v), g.Neighbors(graph.Vertex(v)), 0, nil)
				}
			}},
		{"lists/from=v+1", func(v int) []uint32 { return sweepEdges(v, nil) },
			func(d *DSU, lo, hi int) {
				for v := lo; v < hi; v++ {
					d.UnionNeighbors(uint32(v), g.Neighbors(graph.Vertex(v)), uint32(v)+1, nil)
				}
			}},
		{"SweepCSR", func(v int) []uint32 { return sweepEdges(v, nil) },
			func(d *DSU, lo, hi int) { d.SweepCSR(lo, hi, g.Offsets, g.Adj, nil) }},
		{"SweepCSR/skip", func(v int) []uint32 { return sweepEdges(v, skip) },
			func(d *DSU, lo, hi int) { d.SweepCSR(lo, hi, g.Offsets, g.Adj, skip) }},
		{"KOutCSR", func(v int) []uint32 {
			nbrs := g.Neighbors(graph.Vertex(v))
			if len(nbrs) == 0 {
				return nil
			}
			out := []uint32{nbrs[0]}
			for i := lead; i < k; i++ {
				if p := graph.KOutPick(uint64(v), uint64(i), uint64(len(nbrs)), seed); p != 0 {
					out = append(out, nbrs[p])
				}
			}
			return out
		}, func(d *DSU, lo, hi int) { d.KOutCSR(lo, hi, g.Offsets, g.Adj, k, lead, seed) }},
	}
	for _, kern := range kernels {
		oracle := newSeqDSU(n)
		applied := uint64(0)
		for v := 0; v < n; v++ {
			for _, u := range kern.edges(v) {
				oracle.union(v, int(u))
				applied++
			}
		}
		want := oracle.roots()
		sweep := func(d *DSU) {
			parallel.ForGrained(n, 64, func(lo, hi int) { kern.run(d, lo, hi) })
		}
		for _, v := range Variants() {
			name := kern.name + "/" + v.Name()
			fast := MustNew(n, v.Options())
			sweep(fast)
			sameSets(t, name+"/fast", fast.Labels(), want)

			var st Stats
			opt := v.Options()
			opt.Stats = &st
			counted := MustNew(n, opt)
			sweep(counted)
			sameSets(t, name+"/stats", counted.Labels(), want)
			if st.Unions() != applied {
				t.Fatalf("%s: %d unions, want %d", name, st.Unions(), applied)
			}
		}
	}
}

// TestUnionNeighborsSkipAndWitness: a neighbour below from is applied only
// when skip flags it, and a witness-recording DSU attributes each hook to
// the (v, u) edge that the kernel applied.
func TestUnionNeighborsSkipAndWitness(t *testing.T) {
	for _, v := range ForestVariants() {
		opt := v.Options()
		opt.RecordWitness = true
		d := MustNew(6, opt)
		skip := []bool{false, true, false, false, false, false}
		d.UnionNeighbors(3, []uint32{0, 1, 2, 4}, 4, skip)
		if !d.SameSet(3, 1) || !d.SameSet(3, 4) || d.SameSet(3, 0) || d.SameSet(3, 2) {
			t.Fatalf("%s: applied the wrong neighbours: labels %v", v.Name(), d.Labels())
		}
		for _, w := range d.WitnessEdges(nil) {
			if w.U != 3 || (w.V != 1 && w.V != 4) {
				t.Fatalf("%s: witness (%d,%d) is not an applied edge of 3", v.Name(), w.U, w.V)
			}
		}
	}
}

// TestUnionReportsLink: Union returns true exactly when the call linked
// two roots. Over an edge list with duplicates, reversed copies
// and self-loops, applied from one goroutine or four, the true results
// therefore number n − #components, and with a witness log each true
// result is one log entry.
func TestUnionReportsLink(t *testing.T) {
	const n = 1000
	base := testEdges(n, 1500, 7)
	edges := append([][2]uint32(nil), base...)
	for i, e := range base {
		edges = append(edges, [2]uint32{e[1], e[0]})
		if i%3 == 0 {
			edges = append(edges, e)
		}
		if i%5 == 0 {
			edges = append(edges, [2]uint32{e[0], e[0]})
		}
	}
	oracle := newSeqDSU(n)
	for _, e := range edges {
		oracle.union(int(e[0]), int(e[1]))
	}
	comps := 0
	for v, r := range oracle.roots() {
		if v == r {
			comps++
		}
	}
	want := n - comps

	// links applies every edge through unite from workers goroutines and
	// counts the true results.
	links := func(workers int, unite func(u, v uint32) bool) int {
		var linked atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(edges); i += workers {
					if unite(edges[i][0], edges[i][1]) {
						linked.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		return int(linked.Load())
	}
	for _, v := range Variants() {
		t.Run(v.Name(), func(t *testing.T) {
			t.Parallel()
			for _, workers := range []int{1, 4} {
				d := MustNew(n, v.Options())
				if got := links(workers, d.Union); got != want {
					t.Errorf("%d workers: Union returned true %d times, want n − #components = %d", workers, got, want)
				}
				opt := v.Options()
				opt.WitnessLog = true
				if Validate(opt) != nil {
					continue
				}
				d = MustNew(n, opt)
				got := links(workers, d.Union)
				if got != want || d.WitnessLogLen() != got {
					t.Errorf("%d workers: logging Union returned true %d times with %d log entries, want %d of each",
						workers, got, d.WitnessLogLen(), want)
				}
			}
		})
	}
}

// TestRootsIntoMatchesFlatten holds the out-of-place root pass to Flatten:
// on random forests hanging both ways (parents below and above their
// children), on chains that cross chunk boundaries in both directions, and
// on the forest a chunked SweepCSR leaves on a grid, RootsInto must write
// exactly the parent array Flatten leaves, and must not write parent.
func TestRootsIntoMatchesFlatten(t *testing.T) {
	const n = 3*parallel.DefaultGrain + 5
	forests := map[string][]uint32{}
	down, up := make([]uint32, n), make([]uint32, n)
	for i := range down {
		h := graph.Hash64(uint64(i) ^ 0x9e37)
		down[i], up[i] = uint32(i), uint32(i)
		if i > 0 && h%8 != 0 {
			down[i] = uint32(h % uint64(i))
		}
		if i < n-1 && h%8 != 0 {
			up[i] = uint32(i + 1 + int(h%uint64(n-i-1)))
		}
	}
	forests["random/down"], forests["random/up"] = down, up
	for _, length := range []int{n, parallel.DefaultGrain + 3} {
		toLow, toHigh := make([]uint32, n), make([]uint32, n)
		for i := range toLow {
			toLow[i], toHigh[i] = uint32(i), uint32(i)
			if i%length != 0 {
				toLow[i] = uint32(i - 1)
			}
			if i%length != length-1 && i < n-1 {
				toHigh[i] = uint32(i + 1)
			}
		}
		forests[fmt.Sprintf("chain%d/to-low", length)] = toLow
		forests[fmt.Sprintf("chain%d/to-high", length)] = toHigh
	}
	g := graph.Grid2D(150, 150)
	swept := MustNew(g.NumVertices(), Options{Union: UnionRemCAS, Find: FindNaive, Splice: SplitAtomicOne})
	parallel.ForGrained(g.NumVertices(), 256, func(lo, hi int) {
		swept.SweepCSR(lo, hi, g.Offsets, g.Adj, nil)
	})
	forests["grid/swept"] = swept.Parents()

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

// TestRootsIntoRejectsOverlap: dst is written with plain stores while
// parent is chased, so a dst sharing memory with parent, or one too short
// to hold every root, is refused before anything is written.
func TestRootsIntoRejectsOverlap(t *testing.T) {
	backing := make([]uint32, 64)
	for i := range backing {
		backing[i] = uint32(i % 32)
	}
	for name, args := range map[string][2][]uint32{
		"same array":   {backing[:32], backing[:32]},
		"dst inside":   {backing[16:48], backing[:32]},
		"parent after": {backing[:32], backing[31:63]},
		"short dst":    {make([]uint32, 31), backing[:32]},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: RootsInto did not panic", name)
				}
			}()
			RootsInto(args[0], args[1])
		}()
	}
	RootsInto(backing[32:], backing[:32]) // adjacent is not overlapping
	RootsInto(nil, nil)
}
