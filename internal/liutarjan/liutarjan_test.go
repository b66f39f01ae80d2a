package liutarjan

import (
	"testing"

	"connectit/internal/graph"
	"connectit/internal/testutil"
)

func identity(n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	return p
}

func TestVariantEnumeration(t *testing.T) {
	vs := Variants()
	if len(vs) != 16 {
		t.Fatalf("got %d variants, want 16", len(vs))
	}
	codes := make(map[string]bool)
	wantCodes := []string{
		"CUSA", "CRSA", "PUSA", "PRSA", "PUS", "PRS", "EUSA", "EUS",
		"CUFA", "CRFA", "PUFA", "PRFA", "PUF", "PRF", "EUFA", "EUF",
	}
	for _, v := range vs {
		if codes[v.Code()] {
			t.Fatalf("duplicate code %s", v.Code())
		}
		codes[v.Code()] = true
		if v.Connect == Connect && v.Alter != Alter {
			t.Fatalf("%s: Connect without Alter is incorrect and must not be enumerated", v.Code())
		}
	}
	for _, w := range wantCodes {
		if !codes[w] {
			t.Fatalf("missing variant %s", w)
		}
	}
}

func TestRootBasedClassification(t *testing.T) {
	for _, v := range Variants() {
		want := v.Update == RootUpdate
		if v.RootBased() != want {
			t.Fatalf("%s: RootBased() = %v", v.Code(), v.RootBased())
		}
	}
}

func TestAllVariantsMatchOracleOnPanel(t *testing.T) {
	panel := testutil.Panel()
	for _, v := range Variants() {
		v := v
		t.Run(v.Code(), func(t *testing.T) {
			t.Parallel()
			for name, g := range panel {
				parent := identity(g.NumVertices())
				NewEdgeRunner(v).Run(CollectEdges(g, nil), parent, nil)
				testutil.CheckPartition(t, name, parent, testutil.Components(g))
			}
		})
	}
}

func TestVariantsWithFavoredLabelAndSkip(t *testing.T) {
	// Sampled setting: the large clique pre-labeled with favored root 7,
	// its vertices skipped. All variants must still converge correctly.
	g := func() *graph.Graph {
		gg := graph.Cliques(2, 20)
		edges := gg.Edges()
		edges = append(edges, graph.Edge{U: 5, V: 25})
		return graph.Build(40, edges)
	}()
	want := testutil.Components(g)
	for _, v := range Variants() {
		parent := identity(g.NumVertices())
		skip := make([]bool, g.NumVertices())
		for x := 0; x < 20; x++ {
			parent[x] = 7
			skip[x] = true
		}
		NewEdgeRunner(v).Run(CollectEdges(g, skip), parent, skip)
		testutil.CheckPartition(t, v.Code(), parent, want)
		// The favored component's label must stay within the favored set
		// (labels may legally move to a smaller favored ID, since the
		// order treats the whole set as minimal).
		if parent[3] >= 20 {
			t.Fatalf("%s: favored component relabeled outside the set: %d", v.Code(), parent[3])
		}
	}
}

func TestStergiouMatchesOracleOnPanel(t *testing.T) {
	for name, g := range testutil.Panel() {
		parent := identity(g.NumVertices())
		RunStergiou(g, parent, nil)
		testutil.CheckPartition(t, name, parent, testutil.Components(g))
	}
}

func TestStergiouWithFavored(t *testing.T) {
	g := graph.Path(60)
	parent := identity(60)
	skip := make([]bool, 60)
	for x := 20; x < 40; x++ {
		parent[x] = 33
		skip[x] = true
	}
	RunStergiou(g, parent, skip)
	for v := 0; v < 60; v++ {
		if parent[v] != 33 {
			t.Fatalf("vertex %d label %d, want favored 33 everywhere on a path", v, parent[v])
		}
	}
}

func TestCollectEdgesSkipsOnlyInternalEdges(t *testing.T) {
	g := graph.Path(5) // edges 0-1,1-2,2-3,3-4
	skip := []bool{true, true, false, false, false}
	edges := CollectEdges(g, skip)
	// Edge 0-1 is internal to the skipped set and must be dropped; 1-2 must
	// survive via vertex 2; 2-3 and 3-4 survive normally.
	seen := make(map[[2]uint32]bool)
	for _, e := range edges {
		a, b := e.U, e.V
		if a > b {
			a, b = b, a
		}
		seen[[2]uint32{a, b}] = true
	}
	if seen[[2]uint32{0, 1}] {
		t.Fatal("edge internal to skipped set not dropped")
	}
	for _, want := range [][2]uint32{{1, 2}, {2, 3}, {3, 4}} {
		if !seen[want] {
			t.Fatalf("edge %v missing", want)
		}
	}
	if len(edges) != 3 {
		t.Fatalf("got %d edges, want 3 (no duplicates)", len(edges))
	}
}

func TestCollectEdgesNoSkipGivesEachEdgeOnce(t *testing.T) {
	g := graph.Grid2D(10, 10)
	edges := CollectEdges(g, nil)
	if len(edges) != g.NumEdges() {
		t.Fatalf("collected %d, want %d", len(edges), g.NumEdges())
	}
}

func TestRunEdgesOnRawCOO(t *testing.T) {
	// The streaming layer feeds raw COO batches; verify direct edge input.
	edges := []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 1, V: 2}, {U: 7, V: 8}}
	parent := identity(10)
	NewEdgeRunner(Variants()[0]).Run(edges, parent, nil)
	if parent[0] != parent[3] || parent[7] != parent[8] {
		t.Fatal("COO components wrong")
	}
	if parent[0] == parent[7] || parent[5] != 5 {
		t.Fatal("spurious merge")
	}
}
