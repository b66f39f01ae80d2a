package sample

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"connectit/internal/graph"
	"connectit/internal/parallel"
	"connectit/internal/testutil"
	"connectit/internal/unionfind"
)

// checkDefinition31 verifies the star property of Definition 3.1 and that
// the labeling is a valid partial labeling (same label ⇒ same true
// component).
func checkDefinition31(t *testing.T, name string, g *graph.Graph, labels []uint32) {
	t.Helper()
	truth := testutil.Components(g)
	for v, l := range labels {
		if l != uint32(v) && labels[l] != l {
			t.Fatalf("%s: labels[%d]=%d but labels[%d]=%d: not a star", name, v, l, l, labels[l])
		}
		if truth[v] != truth[l] {
			t.Fatalf("%s: vertex %d labeled %d across true components", name, v, l)
		}
	}
}

// checkForestInducesLabels verifies Definition B.2: contracting the forest
// edges yields exactly the sampled labeling.
func checkForestInducesLabels(t *testing.T, name string, labels []uint32, forest []graph.Edge) {
	t.Helper()
	n := len(labels)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	// Assignment uniqueness (Definition B.2(3)) is structural: witness
	// slots are indexed by the hooked root and each root is hooked at most
	// once, so here we verify the induced partition and acyclicity.
	for _, e := range forest {
		if find(int(e.U)) == find(int(e.V)) {
			t.Fatalf("%s: forest edge (%d,%d) forms a cycle", name, e.U, e.V)
		}
		parent[find(int(e.U))] = find(int(e.V))
	}
	// The two partitions agree when label and tree root determine each
	// other: one pass, where comparing every pair took n² steps.
	rootOf, labelOf := make(map[uint32]int), make(map[int]uint32)
	parts := 0
	for v := 0; v < n; v++ {
		r, l := find(v), labels[v]
		rl, seenL := rootOf[l]
		lr, seenR := labelOf[r]
		if seenL != seenR || (seenL && (rl != r || lr != l)) {
			t.Fatalf("%s: forest partition disagrees with labels at vertex %d", name, v)
		}
		if !seenL {
			rootOf[l], labelOf[r] = r, l
			parts++
		}
	}
	if len(forest) != n-parts {
		t.Fatalf("%s: %d forest edges for %d vertices in %d components, want %d", name, len(forest), n, parts, n-parts)
	}
}

func smallPanel() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":     graph.Path(120),
		"star":     graph.Star(100),
		"grid":     graph.Grid2D(12, 12),
		"cliques":  graph.Cliques(4, 10),
		"rmat":     graph.RMAT(9, 3000, 0.57, 0.19, 0.19, 3),
		"isolated": graph.Build(30, nil),
	}
}

func TestKOutAllVariantsSatisfyDefinition(t *testing.T) {
	for name, g := range smallPanel() {
		for _, variant := range []KOutVariant{KOutHybrid, KOutAfforest, KOutPure, KOutMaxDeg} {
			r := KOut(g, 2, variant, 42, true)
			checkDefinition31(t, name+"/"+variant.String(), g, r.Labels)
			checkForestInducesLabels(t, name+"/"+variant.String(), r.Labels, r.Forest)
		}
	}
}

func TestKOutFullCoverageOnClique(t *testing.T) {
	// On a clique, 2-out sampling must discover the whole component.
	g := graph.Cliques(1, 50)
	r := KOut(g, 2, KOutHybrid, 1, false)
	freq := MostFrequent(r.Labels, 0)
	if Coverage(r.Labels, freq) != 1.0 {
		t.Fatalf("coverage = %f, want 1.0", Coverage(r.Labels, freq))
	}
	if InterComponentEdges(g, r.Labels) != 0 {
		t.Fatal("clique should have no inter-component edges after sampling")
	}
}

func TestBFSSamplingFindsMassiveComponent(t *testing.T) {
	g := graph.RMAT(10, 8000, 0.57, 0.19, 0.19, 7)
	r := BFS(g, 3, 11, true)
	checkDefinition31(t, "rmat", g, r.Labels)
	freq := MostFrequent(r.Labels, 0)
	if Coverage(r.Labels, freq) < 0.1 {
		t.Fatalf("BFS sampling covered only %f", Coverage(r.Labels, freq))
	}
	checkForestInducesLabels(t, "rmat", r.Labels, r.Forest)
}

func TestBFSSamplingIdentityWhenNoMassiveComponent(t *testing.T) {
	// Many small cliques: no component reaches 10%, so identity labeling.
	g := graph.Cliques(40, 5)
	r := BFS(g, 3, 5, false)
	for v, l := range r.Labels {
		if l != uint32(v) {
			t.Fatalf("expected identity labeling, got labels[%d]=%d", v, l)
		}
	}
}

func TestBFSSamplingEmptyGraph(t *testing.T) {
	g := graph.Build(0, nil)
	r := BFS(g, 3, 1, false)
	if len(r.Labels) != 0 {
		t.Fatal("empty graph should give empty labels")
	}
}

func TestLDDSamplingSatisfiesDefinition(t *testing.T) {
	for name, g := range smallPanel() {
		r := LDD(g, 0.2, true, 9, true)
		checkDefinition31(t, name, g, r.Labels)
		checkForestInducesLabels(t, name, r.Labels, r.Forest)
	}
}

func TestMostFrequentExact(t *testing.T) {
	labels := []uint32{5, 5, 5, 2, 2, 9}
	if MostFrequent(labels, 0) != 5 {
		t.Fatalf("MostFrequent = %d, want 5", MostFrequent(labels, 0))
	}
}

func TestMostFrequentSampledLargeInput(t *testing.T) {
	n := 1 << 17
	labels := make([]uint32, n)
	for i := range labels {
		if i%4 == 0 {
			labels[i] = 7 // 25%
		} else {
			labels[i] = 3 // 75%
		}
	}
	if MostFrequent(labels, 123) != 3 {
		t.Fatal("sampled MostFrequent missed a 75% majority")
	}
}

func TestCanonicalizeProducesMinRootedStars(t *testing.T) {
	// Star rooted at 9 (non-minimal), members {2,4,9}; singleton 0,1,3...
	labels := []uint32{0, 1, 9, 3, 9, 5, 6, 7, 8, 9}
	newFreq := Canonicalize(labels, 9)
	if newFreq != 2 {
		t.Fatalf("new frequent label = %d, want 2 (min member)", newFreq)
	}
	want := []uint32{0, 1, 2, 3, 2, 5, 6, 7, 8, 2}
	for i := range labels {
		if labels[i] != want[i] {
			t.Fatalf("labels[%d] = %d, want %d", i, labels[i], want[i])
		}
	}
	// Idempotent.
	if Canonicalize(labels, 2) != 2 {
		t.Fatal("canonicalize not idempotent")
	}
}

func TestCoverageAndInterComponentEdges(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	labels := []uint32{0, 0, 2, 2}
	if Coverage(labels, 0) != 0.5 {
		t.Fatalf("coverage = %f", Coverage(labels, 0))
	}
	// Only edge 1-2 crosses: 2 directed edges.
	if got := InterComponentEdges(g, labels); got != 2 {
		t.Fatalf("inter-component = %d, want 2", got)
	}
}

func TestKOutVariantQualityOrderingOnAdversarialOrder(t *testing.T) {
	// Adversarial ordering mirroring the paper's ClueWeb pathology
	// (Figure 24): every real vertex's first two (lowest-ID) neighbors are
	// "trap" vertices shared by almost nobody else, so kout-afforest's
	// first-k selection fragments the graph into tiny groups, while
	// kout-hybrid's random picks reach the well-connected real edges.
	const traps = 2048 // vertices 0..traps-1, pair (2h, 2h+1) per real vertex
	const reals = 4096 // vertices traps..traps+reals-1, an expander ring
	n := traps + reals
	var edges []graph.Edge
	for i := 0; i < reals; i++ {
		v := graph.Vertex(traps + i)
		h := graph.Hash64(uint64(i)) % (traps / 2)
		edges = append(edges,
			graph.Edge{U: v, V: graph.Vertex(2 * h)},
			graph.Edge{U: v, V: graph.Vertex(2*h + 1)},
			graph.Edge{U: v, V: graph.Vertex(traps + (i+1)%reals)},
			graph.Edge{U: v, V: graph.Vertex(traps + (i+7)%reals)},
		)
	}
	g := graph.Build(n, edges)
	afforest := KOut(g, 2, KOutAfforest, 3, false)
	hybrid := KOut(g, 2, KOutHybrid, 3, false)
	covA := Coverage(afforest.Labels, MostFrequent(afforest.Labels, 1))
	covH := Coverage(hybrid.Labels, MostFrequent(hybrid.Labels, 1))
	if covH < 2*covA {
		t.Fatalf("hybrid coverage %f not clearly above afforest coverage %f on adversarial order", covH, covA)
	}
}

// referenceKOut is the k-out loop as it stood before positional reads: the
// variant switch runs per vertex, every pick (a Hybrid pick repeating
// position 0 included) goes to the union, and the list is read whole — on
// CSR that costs nothing. It is kept as the oracle for which positions each
// variant picks.
func referenceKOut(g *graph.Graph, k int, variant KOutVariant, seed uint64) []uint32 {
	n := g.NumVertices()
	d := unionfind.MustNew(n, unionfind.Options{
		Union:  unionfind.UnionRemCAS,
		Splice: unionfind.SplitAtomicOne,
		Find:   unionfind.FindNaive,
	})
	parallel.ForGrained(n, 256, func(lo, hi int) {
		idxs := make([]graph.Vertex, k)
		for v := lo; v < hi; v++ {
			deg := uint64(g.Degree(graph.Vertex(v)))
			if deg == 0 {
				continue
			}
			var picks []graph.Vertex
			switch variant {
			case KOutAfforest:
				picks = idxs[:0]
				for i := 0; uint64(i) < deg && i < k; i++ {
					picks = append(picks, graph.Vertex(i))
				}
			case KOutPure:
				picks = idxs[:0]
				for i := 0; i < k; i++ {
					picks = append(picks, graph.Vertex(graph.Hash64(uint64(v)<<20^uint64(i)^seed)%deg))
				}
			case KOutHybrid, KOutMaxDeg:
				picks = append(idxs[:0], 0)
				for i := 1; i < k; i++ {
					picks = append(picks, graph.Vertex(graph.Hash64(uint64(v)<<20^uint64(i)^seed)%deg))
				}
			}
			nbrs := g.Neighbors(graph.Vertex(v))
			for j, i := range picks {
				picks[j] = nbrs[i]
			}
			if variant == KOutMaxDeg {
				for _, u := range nbrs {
					if g.Degree(u) > g.Degree(picks[0]) {
						picks[0] = u
					}
				}
			}
			d.UnionNeighbors(uint32(v), picks, 0, nil)
		}
	})
	return d.Labels()
}

// foreignRep forwards only the four graph.Rep methods of a CSR graph: a
// representation that is neither built-in backend, so k-out reads it
// through its whole-list path.
type foreignRep struct{ g *graph.Graph }

var _ graph.Rep = foreignRep{}

func (f foreignRep) NumVertices() int          { return f.g.NumVertices() }
func (f foreignRep) NumDirectedEdges() int     { return f.g.NumDirectedEdges() }
func (f foreignRep) Degree(v graph.Vertex) int { return f.g.Degree(v) }
func (f foreignRep) NeighborsInto(v graph.Vertex, buf []graph.Vertex) []graph.Vertex {
	return f.g.NeighborsInto(v, buf)
}

// TestKOutSameLabelsEveryBackend: every variant, k in {1, 2, 3} and three
// seeds give bit-identical labels on CSR, the block-coded compressed graph
// and a foreign representation, and on CSR the same labels as the reference
// loop. RMAT's hubs run to many blocks, so picks land in every block.
func TestKOutSameLabelsEveryBackend(t *testing.T) {
	g := graph.RMAT(12, 40000, 0.57, 0.19, 0.19, 6)
	if maxDeg := slices.Max(degrees(g)); maxDeg < 10*32 {
		t.Fatalf("panel's largest degree %d spans too few blocks", maxDeg)
	}
	c, f := graph.Compress(g), foreignRep{g}
	for _, variant := range []KOutVariant{KOutHybrid, KOutAfforest, KOutPure, KOutMaxDeg} {
		for k := 1; k <= 3; k++ {
			for _, seed := range []uint64{1, 7, 1 << 40} {
				want := referenceKOut(g, k, variant, seed)
				if got := KOut(g, k, variant, seed, false).Labels; !slices.Equal(got, want) {
					t.Fatalf("%v k=%d seed=%d: CSR labels differ from the reference loop", variant, k, seed)
				}
				if got := KOut(c, k, variant, seed, false).Labels; !slices.Equal(got, want) {
					t.Fatalf("%v k=%d seed=%d: compressed labels differ from CSR", variant, k, seed)
				}
				if got := KOut(f, k, variant, seed, false).Labels; !slices.Equal(got, want) {
					t.Fatalf("%v k=%d seed=%d: foreign labels differ from CSR", variant, k, seed)
				}
			}
		}
	}
}

// TestKOutForestEveryBackend: with forest witnesses on, so through the
// DSU's recording path, every variant, k in {1, 2, 3} and three seeds give
// on the block-coded backend and on a foreign representation the labels
// CSR gives, and a forest that is acyclic, has n - #components edges and
// induces those labels.
func TestKOutForestEveryBackend(t *testing.T) {
	g := graph.RMAT(12, 40000, 0.57, 0.19, 0.19, 6)
	backends := map[string]graph.Rep{"compressed": graph.Compress(g), "foreign": foreignRep{g}}
	for _, variant := range []KOutVariant{KOutHybrid, KOutAfforest, KOutPure, KOutMaxDeg} {
		for k := 1; k <= 3; k++ {
			for _, seed := range []uint64{1, 7, 1 << 40} {
				want := KOut(g, k, variant, seed, true)
				for backend, r := range backends {
					name := fmt.Sprintf("%s %v k=%d seed=%d", backend, variant, k, seed)
					got := KOut(r, k, variant, seed, true)
					if !slices.Equal(got.Labels, want.Labels) {
						t.Fatalf("%s: labels differ from CSR", name)
					}
					checkForestInducesLabels(t, name, got.Labels, got.Forest)
				}
			}
		}
	}
}

// degrees lists every vertex's degree.
func degrees(g *graph.Graph) []int {
	out := make([]int, g.NumVertices())
	for v := range out {
		out[v] = g.Degree(graph.Vertex(v))
	}
	return out
}

// TestKOutAllocsIndependentOfN: k-out by position on the compressed
// backend allocates per call, not per chunk — its pick scratch is held per
// pool worker — so a graph 16 times larger costs no more allocations.
//
// The count is read from runtime.MemStats around each call, not with
// testing.AllocsPerRun, which sets GOMAXPROCS to 1 and so runs the whole
// range as one chunk. A pool worker that parks on its wake channel may cost
// the runtime an allocation of its own (a sudog), more often on a loaded
// host, so the test takes the fewest over ten calls, with the collector off
// so that it does not empty the runtime's sudog caches in between, and
// lets the two sizes differ by at most runtimeSlack. One allocation per
// 256-vertex chunk would differ by 240. k = 8 keeps each scratch slice out
// of the tiny allocator, which counts late. KOutMaxDeg is left out: it
// decodes whole lists into a per-worker buffer that grows to the longest
// list the worker meets, a property of the graph.
func TestKOutAllocsIndependentOfN(t *testing.T) {
	const runtimeSlack = 4
	small := graph.Compress(graph.RMAT(12, 4<<12, 0.57, 0.19, 0.19, 3))
	large := graph.Compress(graph.RMAT(16, 4<<16, 0.57, 0.19, 0.19, 3))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, variant := range []KOutVariant{KOutHybrid, KOutAfforest, KOutPure} {
		allocs := func(c *graph.CompressedGraph) int {
			fewest := math.MaxInt
			for i := 0; i < 10; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				KOut(c, 8, variant, 1, false)
				runtime.ReadMemStats(&after)
				fewest = min(fewest, int(after.Mallocs-before.Mallocs))
			}
			return fewest
		}
		if a, b := allocs(small), allocs(large); b-a > runtimeSlack || a-b > runtimeSlack {
			t.Errorf("%v: %d allocations per call at n = 2^12, %d at n = 2^16", variant, a, b)
		}
	}
}
