package connectit

import (
	"errors"
	"sync"
	"testing"

	"connectit/internal/testutil"
)

// TestBackendEquivalenceAllAlgorithms runs every registered finish
// algorithm on both backends over the standard graph panel and checks that
// CSR and compressed produce the same partition (and the true one). With
// sampling disabled every algorithm traverses the whole edge set, so the
// compressed decode path is exercised end to end.
func TestBackendEquivalenceAllAlgorithms(t *testing.T) {
	panel := testutil.Panel()
	for name, g := range panel {
		truth := testutil.Components(g)
		c := Compress(g)
		for _, a := range Algorithms() {
			solver, err := Compile(Config{Algorithm: a, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			// NoSampling labelings are solver-owned scratch: copy the CSR
			// result before the compressed runs overwrite it.
			csrLabels := append([]uint32(nil), solver.Components(g)...)
			compLabels, err := solver.ComponentsOn(c)
			if err != nil {
				t.Fatal(err)
			}
			testutil.CheckPartition(t, name+"/"+a.Name()+"/csr", csrLabels, truth)
			testutil.CheckPartition(t, name+"/"+a.Name()+"/compressed", compLabels, truth)
		}
	}
}

// sampledSpecs crosses the four sampling modes with one representative
// algorithm per family.
var sampledSpecs = []string{
	"none;uf;rem-cas;naive;split-one",
	"kout;uf;rem-cas;naive;split-one",
	"bfs;uf;hooks;naive;split-one",
	"ldd;sv",
	"kout;lt;CRFA",
	"bfs;lt;PUF",
	"ldd;stergiou",
	"kout;lp",
}

// TestBackendEquivalenceSampled crosses the four sampling modes with one
// representative algorithm per family on both backends: the sampling phase
// (k-out selection, BFS frontiers, LDD cluster growth) must also agree with
// the truth when run over the compressed encoding.
func TestBackendEquivalenceSampled(t *testing.T) {
	panel := testutil.Panel()
	for name, g := range panel {
		truth := testutil.Components(g)
		c := Compress(g)
		for _, spec := range sampledSpecs {
			cfg, err := ParseConfig(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = 42
			solver := MustCompile(cfg)
			csrLabels := append([]uint32(nil), solver.Components(g)...)
			compLabels, err := solver.ComponentsOn(c)
			if err != nil {
				t.Fatal(err)
			}
			testutil.CheckPartition(t, name+"/"+spec+"/csr", csrLabels, truth)
			testutil.CheckPartition(t, name+"/"+spec+"/compressed", compLabels, truth)
		}
	}
}

// TestBackendEquivalenceMapped is the acceptance chain for the out-of-core
// path end to end: a compressed graph round-trips through a .cbin file,
// loads back memory-mapped, and produces labels identical to the CSR
// backend for every registered algorithm.
func TestBackendEquivalenceMapped(t *testing.T) {
	g := NewRMAT(11, 12000, 4)
	truth := testutil.Components(g)
	path := t.TempDir() + "/g.cbin"
	if err := SaveCBIN(path, Compress(g)); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCBIN(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, ok := loaded.(*CompressedGraph)
	if !ok {
		t.Fatalf("loaded as %T, want *CompressedGraph", loaded)
	}
	defer func() {
		if err := mapped.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	for _, a := range Algorithms() {
		solver, err := Compile(Config{Algorithm: a, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		labels, err := solver.ComponentsOn(mapped)
		if err != nil {
			t.Fatal(err)
		}
		testutil.CheckPartition(t, a.Name()+"/mapped", labels, truth)
	}
}

// foreignRep is a GraphRep that is none of the built-in backends: the
// embedded *Graph supplies the methods, but no type switch on the two
// concrete types matches it.
type foreignRep struct{ *Graph }

// TestComponentsOnForeignRep: the kernels reach the graph only through
// GraphRep, so a representation the library has never heard of simply runs
// — every algorithm unsampled, and the sampled specs — and a nil GraphRep
// is the one rejected input, by ComponentsOn, SpanningForest and Query.
func TestComponentsOnForeignRep(t *testing.T) {
	var cfgs []Config
	for _, a := range Algorithms() {
		cfgs = append(cfgs, Config{Algorithm: a, Seed: 7})
	}
	for _, spec := range sampledSpecs {
		cfg, err := ParseConfig(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Seed = 42
		cfgs = append(cfgs, cfg)
	}
	for name, g := range testutil.Panel() {
		truth := testutil.Components(g)
		for _, cfg := range cfgs {
			solver, err := Compile(cfg)
			if err != nil {
				t.Fatal(err)
			}
			labels, err := solver.ComponentsOn(foreignRep{g})
			if err != nil {
				t.Fatal(err)
			}
			testutil.CheckPartition(t, name+"/"+solver.Name()+"/foreign", labels, truth)
		}
	}
	solver := MustCompile(DefaultConfig())
	if _, err := solver.ComponentsOn(nil); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("ComponentsOn(nil): err = %v, want ErrUnsupported", err)
	}
	if _, err := solver.SpanningForest(nil); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("SpanningForest(nil): err = %v, want ErrUnsupported", err)
	}
	if _, err := solver.Query(nil); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Query(nil): err = %v, want ErrUnsupported", err)
	}
}

// TestSpanningForestEveryBackend: Algorithm 2 reads the graph only through
// GraphRep, so each forest mechanism — union-find's per-root witnesses and
// the SV and LT edge runners a Type (ii) stream applies its batches with —
// yields a spanning forest of real graph edges on the CSR, compressed and
// foreign representations, under every sampling mode,
// from Solver.SpanningForest and from the forest-backed Solver.Query.
func TestSpanningForestEveryBackend(t *testing.T) {
	type rep struct {
		name string
		g    GraphRep
	}
	panel := testutil.Panel()
	reps := make(map[string][]rep, len(panel))
	for name, g := range panel {
		reps[name] = []rep{{"csr", g}, {"compressed", Compress(g)}, {"foreign", foreignRep{g}}}
	}
	for _, sampling := range []string{"none", "kout", "bfs", "ldd"} {
		for _, alg := range []string{"uf;rem-cas;naive;split-one", "sv", "lt;CRFA", "lt;PRSA"} {
			cfg := mustParseConfig(t, sampling+";"+alg)
			cfg.Seed = 11
			solver := MustCompile(cfg)
			for name, g := range panel {
				for _, r := range reps[name] {
					label := sampling + ";" + alg + "/" + name + "/" + r.name
					forest, err := solver.SpanningForest(r.g)
					if err != nil {
						t.Fatalf("%s: SpanningForest: %v", label, err)
					}
					testutil.CheckSpanningForest(t, label, g, forest)
					q, err := solver.Query(r.g)
					if err != nil {
						t.Fatalf("%s: Query: %v", label, err)
					}
					if forest, err = q.SpanningForest(); err != nil {
						t.Fatalf("%s: Query.SpanningForest: %v", label, err)
					}
					testutil.CheckSpanningForest(t, label+"/query", g, forest)
				}
			}
		}
	}
}

// TestConcurrentSolversAcrossBackends runs four Solvers on four goroutines
// at once, each cycling one retained finish hook (DSU, Liu-Tarjan
// EdgeRunner, label and skip scratch) through the CSR, compressed,
// foreign, and again CSR copy of its own panel graph. Every labeling is
// checked against the oracle, so state leaking between solves — across
// goroutines through the worker pool, or across backends through the
// Solver's retained scratch — shows up as a wrong partition or, under
// -race, as a report.
func TestConcurrentSolversAcrossBackends(t *testing.T) {
	panel := testutil.Panel()
	jobs := []struct{ graph, spec string }{
		{"rmat", "kout;uf;rem-cas;naive;split-one"},
		{"grid", "none;uf;rem-cas;naive;split-one"},
		{"weblike", "kout;lt;CRFA"},
		{"ba", "ldd;sv"},
	}
	// CSR twice: the second run follows two runs on other representations.
	repNames := []string{"csr", "compressed", "foreign", "csr-again"}
	const rounds = 3
	results := make([][][]uint32, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		g := panel[job.graph]
		cfg, err := ParseConfig(job.spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Seed = uint64(i)
		solver := MustCompile(cfg)
		reps := []GraphRep{g, Compress(g), foreignRep{g}, g}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, rep := range reps {
					labels, err := solver.ComponentsOn(rep)
					if err != nil {
						t.Error(err)
						return
					}
					// NoSampling labelings are solver-owned scratch.
					results[i] = append(results[i], append([]uint32(nil), labels...))
				}
			}
		}(i)
	}
	wg.Wait()
	for i, job := range jobs {
		truth := testutil.Components(panel[job.graph])
		if len(results[i]) != rounds*len(repNames) {
			t.Fatalf("%s/%s: %d solves completed, want %d", job.graph, job.spec, len(results[i]), rounds*len(repNames))
		}
		for k, labels := range results[i] {
			testutil.CheckPartition(t, job.graph+"/"+job.spec+"/"+repNames[k%len(repNames)], labels, truth)
		}
	}
}
