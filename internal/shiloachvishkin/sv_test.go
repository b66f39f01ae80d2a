package shiloachvishkin

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

func TestRunMatchesOracleOnPanel(t *testing.T) {
	for name, g := range testutil.Panel() {
		parent := identity(g.NumVertices())
		Run(g, parent, nil)
		testutil.CheckPartition(t, name, parent, testutil.Components(g))
	}
}

func TestRunWithSampledStarsAndSkip(t *testing.T) {
	// Simulate a sampling phase: a star labeling of the big clique with a
	// non-minimal root, and skip over its members.
	g := testutil.Panel()["bridged"] // two 20-cliques joined at (5,25)
	n := g.NumVertices()
	parent := identity(n)
	// Pretend sampling found clique 0 rooted at vertex 7 (root > members!).
	for v := 0; v < 20; v++ {
		parent[v] = 7
	}
	skip := make([]bool, n)
	for v := 0; v < 20; v++ {
		skip[v] = true
	}
	Run(g, parent, skip)
	testutil.CheckPartition(t, "bridged-sampled", parent, testutil.Components(g))
}

func TestRoundsBoundedLogarithmically(t *testing.T) {
	g := graph.Path(1 << 12)
	parent := identity(g.NumVertices())
	rounds := Run(g, parent, nil)
	// SV needs O(log n) rounds; allow slack but reject linear behaviour.
	if rounds > 40 {
		t.Fatalf("rounds = %d on a path of 4096, want O(log n)", rounds)
	}
}
