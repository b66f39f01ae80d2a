package connectit

// Shared fixtures for the benchmark harness (bench_*.go). Each benchmark
// regenerates one table or figure of the paper's evaluation; DESIGN.md §6
// maps experiment IDs to bench targets and cmd/experiments runs.

import (
	"sync"
	"testing"

	"connectit/internal/core"
	"connectit/internal/liutarjan"
	"connectit/internal/unionfind"
)

// benchGraphs lazily builds and caches the benchmark graph panel: class
// analogs of the paper's inputs at container scale (DESIGN.md §8).
var benchGraphs struct {
	once sync.Once
	m    map[string]*Graph
}

func benchPanel(b *testing.B) map[string]*Graph {
	b.Helper()
	benchGraphs.once.Do(func() {
		benchGraphs.m = map[string]*Graph{
			// road_usa analog: high diameter, degree <= 4.
			"road": NewGrid2D(200, 200),
			// LiveJournal/Orkut analog: skewed social graph.
			"social": NewRMAT(15, 16*(1<<15), 42),
			// Friendster analog: preferential attachment.
			"ba": NewBarabasiAlbert(1<<15, 10, 43),
			// ClueWeb/Hyperlink analog: many components, skewed.
			"web": NewWebLike(15, 8*(1<<15), 0.05, 44),
		}
	})
	return benchGraphs.m
}

// benchGraphNames fixes the report ordering.
var benchGraphNames = []string{"road", "social", "ba", "web"}

// familyAlgorithms returns the per-family representative algorithms whose
// rows Table 3 reports (the paper lists the fastest option combination per
// family; we use the combinations §4.1 identifies as fastest), selected by
// canonical spec strings.
func familyAlgorithms() []Algorithm {
	var out []Algorithm
	for _, spec := range []string{
		"uf;early;naive;split-one",
		"uf;hooks;naive;split-one",
		"uf;async;naive;split-one",
		"uf;rem-cas;naive;split-one",
		"uf;rem-lock;naive;split-one",
		"uf;jtb;two-try",
		"lt;PRF", // among the fastest LT variants (§C.1.1)
		"sv",
		"lp",
	} {
		out = append(out, MustParseAlgorithm(spec))
	}
	return out
}

func samplingModesForBench() []core.SamplingMode {
	return []core.SamplingMode{core.NoSampling, core.KOutSampling, core.BFSSampling, core.LDDSampling}
}

// runConnectivity is the timed inner loop shared by static benches: the
// configuration is compiled once and the solver reused, matching how a
// production caller would run repeated queries.
func runConnectivity(b *testing.B, g *Graph, cfg Config) {
	b.Helper()
	b.ReportAllocs()
	solver, err := Compile(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := solver.ComponentsOn(g); err != nil {
			b.Fatal(err)
		}
	}
}

// ufName shortens a union-find variant for sub-benchmark names.
func ufName(v unionfind.Variant) string { return v.Name() }

// ltName shortens a Liu-Tarjan variant for sub-benchmark names.
func ltName(v liutarjan.Variant) string { return v.Code() }
