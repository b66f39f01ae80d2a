package graph

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// generatorPanel instantiates every synthetic generator in gen.go at test
// scale, alongside raw-edge-stream builds with duplicates and self loops.
func generatorPanel() map[string]*Graph {
	return map[string]*Graph{
		"rmat":       RMAT(11, 12000, 0.57, 0.19, 0.19, 3),
		"rmat-skew":  RMAT(10, 20000, 0.5, 0.1, 0.1, 9),
		"ba":         BarabasiAlbert(1200, 5, 4),
		"er":         ErdosRenyi(2000, 6000, 5),
		"grid":       Grid2D(37, 23),
		"path":       Path(513),
		"cycle":      Cycle(100),
		"star":       Star(300),
		"cliques":    Cliques(7, 9),
		"weblike":    WebLike(10, 5000, 0.3, 6),
		"empty":      Build(0, nil),
		"er-empty":   ErdosRenyi(0, 10, 1),
		"path-0":     Path(0),
		"star-0":     Star(0),
		"single":     Build(1, nil),
		"isolated":   Build(64, nil),
		"self-loops": Build(5, []Edge{{U: 0, V: 0}, {U: 1, V: 1}, {U: 2, V: 3}}),
		"dups":       Build(4, []Edge{{U: 0, V: 1}, {U: 1, V: 0}, {U: 0, V: 1}, {U: 2, V: 3}}),
	}
}

// TestBuildInvariants property-checks every generator's output: the CSR is
// symmetric, each adjacency list is strictly ascending (sorted, deduped),
// self-loop-free, and the offsets are consistent with the degree sum.
func TestBuildInvariants(t *testing.T) {
	for name, g := range generatorPanel() {
		n := g.NumVertices()
		if int(g.Offsets[n]) != len(g.Adj) {
			t.Fatalf("%s: Offsets[n]=%d, len(Adj)=%d", name, g.Offsets[n], len(g.Adj))
		}
		degSum := 0
		for v := 0; v < n; v++ {
			degSum += g.Degree(Vertex(v))
		}
		if degSum != g.NumDirectedEdges() || degSum != 2*g.NumEdges() {
			t.Fatalf("%s: degree sum %d, directed %d, 2m %d", name, degSum, g.NumDirectedEdges(), 2*g.NumEdges())
		}
		seen := make(map[[2]Vertex]bool)
		for v := 0; v < n; v++ {
			nbrs := g.Neighbors(Vertex(v))
			for i, u := range nbrs {
				if u == Vertex(v) {
					t.Fatalf("%s: self loop at %d", name, v)
				}
				if int(u) >= n {
					t.Fatalf("%s: neighbor %d out of range", name, u)
				}
				if i > 0 && nbrs[i-1] >= u {
					t.Fatalf("%s: adjacency of %d not strictly ascending at %d", name, v, i)
				}
				seen[[2]Vertex{Vertex(v), u}] = true
			}
		}
		for e := range seen {
			if !seen[[2]Vertex{e[1], e[0]}] {
				t.Fatalf("%s: edge (%d,%d) has no reverse", name, e[0], e[1])
			}
		}
	}
}

// referenceBuild is the definition of Build: every directed entry of every
// non-loop edge, packed as source<<32 | destination, sorted, deduplicated.
func referenceBuild(n int, edges []Edge) *Graph {
	var keys []uint64
	for _, e := range edges {
		if e.U != e.V {
			keys = append(keys, uint64(e.U)<<32|uint64(e.V), uint64(e.V)<<32|uint64(e.U))
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	g := &Graph{Offsets: make([]uint64, n+1), Adj: make([]Vertex, len(keys))}
	for i, k := range keys {
		g.Offsets[k>>32+1]++
		g.Adj[i] = Vertex(k)
	}
	for v := 0; v < n; v++ {
		g.Offsets[v+1] += g.Offsets[v]
	}
	return g
}

// buildInput is one edge list for Build.
type buildInput struct {
	n     int
	edges []Edge
}

// buildInputs returns the inputs Build is checked on: every panel graph's
// edges fed back duplicated in both orientations and in reverse order, raw
// generator streams, and cases at the edges of the bucket logic.
func buildInputs() map[string]buildInput {
	in := make(map[string]buildInput)
	for name, g := range generatorPanel() {
		fwd := g.Edges()
		e := slices.Clone(fwd)
		for _, x := range slices.Backward(fwd) {
			e = append(e, Edge{x.V, x.U}, x)
		}
		in["panel-"+name] = buildInput{g.NumVertices(), e}
	}
	in["rmat-raw"] = buildInput{1 << 10, RMATEdges(10, 9000, 0.57, 0.19, 0.19, 11)}
	in["rmat-raw-blocks"] = buildInput{1 << 12, RMATEdges(12, 100_000, 0.5, 0.1, 0.1, 7)}
	in["ba-raw"] = buildInput{3000, BarabasiAlbertEdges(3000, 4, 1)}

	random := func(n, m int, seed uint64) []Edge {
		r := newRNG(seed)
		e := make([]Edge, m)
		for i := range e {
			e[i] = Edge{Vertex(r.intn(uint64(n))), Vertex(r.intn(uint64(n)))}
		}
		return e
	}
	in["below-one-bucket"] = buildInput{1<<minBucketBits - 1, random(1<<minBucketBits-1, 500, 1)}
	// n = k·2^s - 1, k·2^s, k·2^s + 1 for the width this pool picks, with
	// edges at the last vertex and across a bucket boundary.
	const base = 40_000
	s := buildShape(base, base).bits
	for _, d := range []int{-1, 0, 1} {
		n := base>>s<<s + d
		e := random(n, n, uint64(n))
		last, edge := Vertex(n-1), Vertex((base>>s-1)<<s-1)
		e = append(e, Edge{last, 0}, Edge{edge, last}, Edge{last, edge - 1}, Edge{edge, edge + 1}, Edge{last, last})
		in[fmt.Sprintf("boundary%+d", d)] = buildInput{n, e}
	}
	// Wide enough (2^21 + 1 vertices) that buckets widen past 2^bucketBits
	// to keep the fan-out.
	wide := 1<<21 + 1
	in["wide-buckets"] = buildInput{wide, append(random(wide, 20_000, 3), Edge{Vertex(wide - 1), 1<<21 - 1})}
	star := make([]Edge, 0, 5000)
	for i := 1; i < 5000; i++ {
		star = append(star, Edge{0, Vertex(i)})
	}
	// The hub's bucket holds over half the entries, more than any worker
	// may sort in scratch, so it is grouped in place.
	in["star"] = buildInput{5000, star}
	in["hubs-shuffled"] = buildInput{1 << 17, shuffledHubs()}
	loops := make([]Edge, 1000)
	for i := range loops {
		loops[i] = Edge{Vertex(i), Vertex(i)}
	}
	in["only-self-loops"] = buildInput{1000, loops}
	both := random(700, 4000, 5)
	for i := range 4000 {
		both = append(both, Edge{both[i].V, both[i].U}, both[i])
	}
	in["both-orientations-duplicated"] = buildInput{700, both}
	return in
}

// shuffledHubs is two duplicate-heavy hubs in shuffled order among random
// edges, sized so that each hub's bucket stays within what up to four
// workers sort in scratch at the buckets this pool picks and at 1, 64 and
// 2^16 vertices. The hub lists are long and out of order, so Build
// radix-sorts them: vertex 0's 5000 neighbours, each twice, span 16 bits
// and take two passes; vertex 1024's 2048, each three times, span 11 and
// take one, leaving the list in the vacated front of the bucket.
func shuffledHubs() []Edge {
	const half = 1 << 16
	r := newRNG(17)
	var e []Edge
	for i := range 5000 {
		x := Vertex(half + i*13%half)
		e = append(e, Edge{0, x}, Edge{x, 0})
	}
	for i := range 3 * 2048 {
		e = append(e, Edge{1024, Vertex(half + i%2048)})
	}
	for range 80_000 {
		e = append(e, Edge{Vertex(half + r.intn(half)), Vertex(half + r.intn(half))})
	}
	for i := len(e) - 1; i > 0; i-- {
		j := r.intn(uint64(i + 1))
		e[i], e[j] = e[j], e[i]
	}
	return e
}

// TestBuildMatchesSequential: Build's Offsets and Adj equal the sequential
// reference exactly, at the shape this pool derives and at forced shapes
// (buckets of 1, 64 and 2^16 vertices, one or seven blocks, packed entries
// or a side array of source indices). CI runs it at -cpu 1,4.
func TestBuildMatchesSequential(t *testing.T) {
	for name, in := range buildInputs() {
		want := referenceBuild(in.n, in.edges)
		check := func(how string, g *Graph, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %s: %v", name, how, err)
			}
			if !slices.Equal(g.Offsets, want.Offsets) || !slices.Equal(g.Adj, want.Adj) {
				t.Fatalf("%s %s: CSR differs from the sequential reference", name, how)
			}
		}
		g, err := TryBuild(in.n, in.edges)
		check("TryBuild", g, err)
		dstBits := uint(bits.Len(uint(max(in.n-1, 0))))
		for _, s := range []uint{0, 6, 16} {
			for _, blocks := range []int{1, 7} {
				for _, packed := range []bool{false, true} {
					if packed && s+dstBits > 32 || (in.n>>s+1)*blocks > maxCounts {
						continue
					}
					sh := shape{bits: s, blocks: blocks, packed: packed}
					g, err := build(in.n, in.edges, sh)
					check(fmt.Sprintf("%+v", sh), g, err)
				}
			}
		}
	}
}

// TestBuildRadixSortMatchesSlicesSort: the long-list radix sort orders
// lists around its threshold and far past it the way slices.Sort does, for
// values that vary in 0 to 32 low bits (one, two and three passes, so the
// result lands in either buffer) and with heavy duplicates. CI runs it at
// -cpu 1,4.
func TestBuildRadixSortMatchesSlicesSort(t *testing.T) {
	var sc bucketScratch
	r := newRNG(5)
	passes := map[bool]int{}
	for _, n := range []int{radixMin - 1, radixMin, radixMin + 1, 1000, 70_000} {
		for _, spread := range []uint{0, 1, 11, 12, 22, 23, 32} {
			high := Vertex(0x9e3779b9) &^ Vertex(1<<spread-1)
			draw := func() Vertex { return high | Vertex(r.next()&(1<<spread-1)) }
			pool := []Vertex{draw(), draw(), draw()}
			for _, dups := range []bool{false, true} {
				list := make([]Vertex, n)
				for i := range list {
					list[i] = draw()
					if dups {
						list[i] = pool[r.intn(uint64(len(pool)))]
					}
				}
				want := slices.Clone(list)
				slices.Sort(want)
				buf := make([]Vertex, n)
				got := sc.radixSort(list, buf)
				if !slices.Equal(got, want) {
					t.Fatalf("n %d spread %d dups %v: radix order differs from slices.Sort", n, spread, dups)
				}
				passes[&got[0] == &buf[0]]++
			}
		}
	}
	if passes[false] == 0 || passes[true] == 0 {
		t.Fatalf("results by buffer %v: want both even and odd pass counts", passes)
	}
}

// TestBuildAllocBound: one Build allocates at most 1.75x the graph it
// returns — Adj is the partition array, the source indices ride in its
// entries, and the scratch is capped.
func TestBuildAllocBound(t *testing.T) {
	edges := RMATEdges(16, 1<<20, 0.57, 0.19, 0.19, 2)
	Build(1<<16, edges) // start the pool's workers
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := Build(1<<16, edges)
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	if limit := 1.75 * float64(g.SizeBytes()); float64(alloc) > limit {
		t.Fatalf("Build allocated %d bytes, over 1.75 x %d", alloc, g.SizeBytes())
	}
}

// TestTryBuildFirstBadEdge: with several out-of-range edges in different
// blocks, the error names the first, every time.
func TestTryBuildFirstBadEdge(t *testing.T) {
	edges := RMATEdges(10, 200_000, 0.57, 0.19, 0.19, 3)
	edges[10] = Edge{0, 1_000_003}
	edges[150_000] = Edge{2_000_007, 1}
	for range 20 {
		for _, blocks := range []int{0, 2, 16} {
			var err error
			if blocks == 0 {
				_, err = TryBuild(1<<10, edges)
			} else {
				_, err = build(1<<10, edges, shape{bits: 9, blocks: blocks, packed: true})
			}
			if err == nil || !strings.Contains(err.Error(), "{0, 1000003}") {
				t.Fatalf("blocks %d: error %v, want the edge at index 10", blocks, err)
			}
		}
	}
}

// TestEdgesMatchesSequential: the two-pass parallel Edges lists the same
// edges in the same order as one sequential sweep.
func TestEdgesMatchesSequential(t *testing.T) {
	for name, g := range generatorPanel() {
		var want []Edge
		for u := 0; u < g.NumVertices(); u++ {
			for _, v := range g.Neighbors(Vertex(u)) {
				if Vertex(u) < v {
					want = append(want, Edge{Vertex(u), v})
				}
			}
		}
		if got := g.Edges(); !slices.Equal(got, want) {
			t.Fatalf("%s: Edges differs from the sequential sweep", name)
		}
	}
}

func TestTryBuildRange(t *testing.T) {
	if _, err := TryBuild(3, []Edge{{U: 0, V: 3}}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := TryBuild(0, []Edge{{U: 0, V: 0}}); err == nil {
		t.Fatal("expected out-of-range error for n=0")
	}
	if g, err := TryBuild(3, []Edge{{U: 0, V: 2}}); err != nil || g.NumEdges() != 1 {
		t.Fatalf("valid input rejected: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Build did not panic on out-of-range endpoint")
		}
	}()
	Build(2, []Edge{{U: 0, V: 2}})
}

// TestReadEdgeListParallelChunks drives the chunked parallel parser across
// an input large enough to split into several chunks and checks the result
// against the naive line-by-line interpretation.
func TestReadEdgeListParallelChunks(t *testing.T) {
	var sb strings.Builder
	var want []Edge
	maxV := 0
	for i := 0; i < 40000; i++ {
		switch i % 7 {
		case 3:
			fmt.Fprintf(&sb, "# comment %d\n", i)
		case 5:
			sb.WriteString("   \n")
		default:
			u, v := i%311, (i*17)%997
			fmt.Fprintf(&sb, "%d\t%d  extra-%d\n", u, v, i)
			want = append(want, Edge{Vertex(u), Vertex(v)})
			if u+1 > maxV {
				maxV = u + 1
			}
			if v+1 > maxV {
				maxV = v + 1
			}
		}
	}
	if sb.Len() < 128<<10 {
		t.Fatalf("input too small to exercise chunking: %d bytes", sb.Len())
	}
	edges, n, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n != maxV || len(edges) != len(want) {
		t.Fatalf("n=%d len=%d, want n=%d len=%d", n, len(edges), maxV, len(want))
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edge %d = %v, want %v", i, edges[i], want[i])
		}
	}
}

// errorLineCases are malformed edge lists and the 1-based line each must
// report; they also seed the fuzz targets.
var errorLineCases = []struct {
	in   string
	line int
}{
	{"0 1\nbogus\n2 3\n", 2},
	{"0\n", 1},
	{"# c\n\n0 1\n1 x\n", 4},
	{"5000000000 1\n", 1}, // endpoint beyond uint32
	{"0 1\n1 -2\n", 2},
}

// TestReadEdgeListErrorLines checks that malformed lines report their exact
// 1-based line number, including when the bad line lands beyond the first
// parallel chunk.
func TestReadEdgeListErrorLines(t *testing.T) {
	cases := slices.Clone(errorLineCases)
	// A bad line far past the 64 KiB minimum chunk size: the second chunk
	// must still report the global line number.
	var sb strings.Builder
	lines := 0
	for sb.Len() < 200<<10 {
		fmt.Fprintf(&sb, "%d %d\n", lines%100, (lines+1)%100)
		lines++
	}
	sb.WriteString("broken line\n")
	cases = append(cases, struct {
		in   string
		line int
	}{sb.String(), lines + 1})

	for _, c := range cases {
		_, _, err := ReadEdgeList(strings.NewReader(c.in))
		if err == nil {
			t.Fatalf("no error for %.30q", c.in)
		}
		want := fmt.Sprintf("line %d:", c.line)
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not carry %q", err, want)
		}
	}
}

func BenchmarkReadEdgeList(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 200000; i++ {
		fmt.Fprintf(&sb, "%d %d\n", i%4096, (i*31)%4096)
	}
	in := sb.String()
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadEdgeList(strings.NewReader(in)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuild builds RMAT in generator order (raw), which the RMAT
// set-ups pay, and in the sorted order of Graph.Edges, which loading a
// saved edge list pays; the second groups lists that arrive already sorted.
func BenchmarkBuild(b *testing.B) {
	raw := RMATEdges(16, 16*(1<<16), 0.57, 0.19, 0.19, 2)
	for _, c := range []struct {
		name  string
		edges []Edge
	}{{"raw", raw}, {"sorted", Build(1<<16, raw).Edges()}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Build(1<<16, c.edges)
			}
		})
	}
}
