package core

import (
	"fmt"
	"slices"
	"testing"

	"connectit/internal/graph"
	"connectit/internal/sample"
	"connectit/internal/testutil"
	"connectit/internal/unionfind"
)

// ufAlgorithms is the 36 union-find finish variants.
func ufAlgorithms() []Algorithm {
	var out []Algorithm
	for _, v := range unionfind.Variants() {
		out = append(out, Algorithm{Kind: FinishUnionFind, UF: v})
	}
	return out
}

// backends returns g on both representations.
func backends(g *graph.Graph) map[string]graph.Rep {
	return map[string]graph.Rep{"csr": g, "compressed": graph.Compress(g)}
}

// shuffledPath is a path on n vertices whose ids are visited in a
// pseudo-random order, so that unions walk parent chains (a path numbered in
// order hooks every vertex straight onto a root with zero steps).
func shuffledPath(n int, seed uint64) *graph.Graph {
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := int(graph.Hash64(uint64(i)^seed) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, graph.Edge{U: perm[i], V: perm[i+1]})
	}
	return graph.Build(n, edges)
}

// TestSweepUnionsEachEdgeOnce is the orientation property: the unsampled
// union-find sweep issues exactly one union per undirected edge, for every
// variant on every backend — and so does the witness-recording forest sweep.
func TestSweepUnionsEachEdgeOnce(t *testing.T) {
	all := testutil.Panel()
	panel := make(map[string]*graph.Graph)
	for _, name := range []string{"grid", "rmat", "path", "star", "bridged"} {
		panel[name] = all[name]
	}
	for name, g := range panel {
		want := testutil.Components(g)
		reps := backends(g)
		for _, alg := range ufAlgorithms() {
			var st unionfind.Stats
			c, err := Compile(Config{Algorithm: alg, Stats: &st})
			if err != nil {
				t.Fatal(err)
			}
			for backend, rep := range reps {
				st.Reset()
				labels := c.Components(rep)
				id := fmt.Sprintf("%s/%s/%s", name, backend, alg.Name())
				if got := st.Unions(); got != uint64(g.NumEdges()) {
					t.Fatalf("%s: %d unions, want one per edge = %d", id, got, g.NumEdges())
				}
				testutil.CheckPartition(t, id, labels, want)
			}
			if c.ForestErr() != nil {
				continue
			}
			st.Reset()
			forest, err := c.SpanningForest(g)
			if err != nil {
				t.Fatal(err)
			}
			if got := st.Unions(); got != uint64(g.NumEdges()) {
				t.Fatalf("%s/forest/%s: %d unions, want one per edge = %d", name, alg.Name(), got, g.NumEdges())
			}
			testutil.CheckSpanningForest(t, name+"/forest/"+alg.Name(), g, forest)
		}
	}
}

// TestSweepAppliesEdgesIntoSkippedComponent: an edge whose one endpoint
// lies in the skipped most-frequent component is seen only from its other
// endpoint, which must apply it whichever side has the lower id. The graph
// is a clique (the sampled giant) with a long path hanging off it; pure
// k-out and LDD leave the path in fragments, so path-to-giant edges cross
// the skip boundary. The giant holds the low ids in one graph and the high
// ids in the other.
func TestSweepAppliesEdgesIntoSkippedComponent(t *testing.T) {
	const clique, tail = 200, 400
	build := func(giantLow bool) *graph.Graph {
		id := func(i int) uint32 { // i < clique: giant member
			if giantLow {
				return uint32(i)
			}
			return uint32(clique + tail - 1 - i)
		}
		var edges []graph.Edge
		for a := 0; a < clique; a++ {
			for b := a + 1; b < clique; b++ {
				edges = append(edges, graph.Edge{U: id(a), V: id(b)})
			}
		}
		for i := clique - 1; i+1 < clique+tail; i++ {
			edges = append(edges, graph.Edge{U: id(i), V: id(i + 1)})
		}
		return graph.Build(clique+tail, edges)
	}
	samplings := []Config{
		{Sampling: KOutSampling, KOutStrategy: sample.KOutPure},
		{Sampling: BFSSampling},
		{Sampling: LDDSampling},
	}
	for _, giantLow := range []bool{true, false} {
		g := build(giantLow)
		want := testutil.Components(g)
		// The crafted case is only meaningful if sampling leaves work across
		// the skip boundary: the giant is skipped, the path is not all in it.
		kout := sample.KOut(g, 2, sample.KOutPure, 42, false)
		frequent := sample.MostFrequent(kout.Labels, 42)
		if cov := sample.Coverage(kout.Labels, frequent); cov >= 1 || cov < float64(clique)/float64(clique+tail) {
			t.Fatalf("giantLow=%v: k-out covers %.2f of the vertices, want the clique but not the whole path", giantLow, cov)
		}
		if (frequent == 0) != giantLow {
			t.Fatalf("giantLow=%v: skipped component is rooted at %d", giantLow, frequent)
		}
		reps := backends(g)
		for _, base := range samplings {
			for _, alg := range ufAlgorithms() {
				cfg := base
				cfg.Algorithm, cfg.Seed = alg, 42
				c, err := Compile(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for backend, rep := range reps {
					labels := c.Components(rep)
					testutil.CheckPartition(t, fmt.Sprintf("giantLow=%v/%s/%s/%s", giantLow, cfg.Sampling, backend, alg.Name()), labels, want)
				}
			}
		}
	}
}

// TestSweepStatsParity: the sweep kernel's call-free Rem-CAS path and the
// instrumented per-edge path compute the same partition for every variant,
// and the instrumented run's counters are live — on a path whose ids are
// shuffled, every variant walks parent chains, so the unionfind.* probes of
// the benchmark's layer panel can never read zero.
func TestSweepStatsParity(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"shuffled-path": shuffledPath(4000, 7),
		"grid":          graph.Grid2D(30, 40),
		"rmat":          graph.RMAT(11, 12000, 0.57, 0.19, 0.19, 9),
	}
	for name, g := range graphs {
		want := testutil.Components(g)
		for _, mode := range []SamplingMode{NoSampling, KOutSampling} {
			for _, alg := range ufAlgorithms() {
				id := fmt.Sprintf("%s/%s/%s", name, mode, alg.Name())
				plain, err := Connectivity(g, Config{Sampling: mode, Algorithm: alg, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				testutil.CheckPartition(t, id+"/plain", plain, want)
				var st unionfind.Stats
				counted, err := Connectivity(g, Config{Sampling: mode, Algorithm: alg, Seed: 3, Stats: &st})
				if err != nil {
					t.Fatal(err)
				}
				testutil.CheckPartition(t, id+"/stats", counted, plain)
				if name != "shuffled-path" || mode != NoSampling {
					continue
				}
				if st.Unions() == 0 || st.TotalPathLength() == 0 || st.MaxPathLength() == 0 {
					t.Fatalf("%s: unions %d, total path length %d, max path length %d; want all non-zero",
						id, st.Unions(), st.TotalPathLength(), st.MaxPathLength())
				}
			}
		}
	}
}

// TestSweepOwnedLabelsMatchUnite: the unsampled CSR solve of every
// Union-Rem-CAS splice rule with FindNaive, which unions each worker's id
// range privately before the shared sweep, returns labels bit-identical to
// the same solve with Stats set, which takes the per-edge unite path in one
// shared sweep, and to the oracle's least-vertex labels: roots are linked
// by id, so every label is its component's least vertex. The grid keeps
// nearly every edge inside a range; on RMAT nearly every range is left at
// its first vertex. The path and the lone vertex have fewer vertices than
// ranges.
func TestSweepOwnedLabelsMatchUnite(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid": graph.Grid2D(150, 120),
		"rmat": graph.RMAT(13, 40000, 0.57, 0.19, 0.19, 5),
		"path": graph.Build(5, []graph.Edge{{U: 3, V: 4}, {U: 0, V: 1}, {U: 1, V: 3}}),
		"lone": graph.Build(1, nil),
	}
	for name, g := range graphs {
		want := testutil.Components(g)
		for _, rule := range []string{"split-one", "halve-one", "splice"} {
			spec := "none;uf;rem-cas;naive;" + rule
			owned := slices.Clone(mustCompile(t, spec).Components(g))
			cfg, err := ParseConfig(spec)
			if err != nil {
				t.Fatal(err)
			}
			var st unionfind.Stats
			cfg.Stats = &st
			counted, err := Compile(cfg)
			if err != nil {
				t.Fatal(err)
			}
			perEdge := counted.Components(g)
			if st.Unions() != uint64(g.NumEdges()) {
				t.Fatalf("%s/%s: the per-edge run made %d unions, want %d", name, rule, st.Unions(), g.NumEdges())
			}
			if !slices.Equal(owned, perEdge) || !slices.Equal(owned, want) {
				t.Fatalf("%s/%s: labels differ from the per-edge path or the oracle", name, rule)
			}
		}
	}
}
