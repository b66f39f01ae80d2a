package connectit

// Benchmarks for the compiled Solver path: the point of Compile is that
// repeated runs skip per-call validation and reuse scratch (labels, skip
// flags, union-find auxiliary arrays), so allocs/op on the finish hot path
// drop versus the one-shot free functions, which compile per call.

import (
	"testing"
)

// BenchmarkSolverReuse compares the free-function path (compile + allocate
// every call) against a reused Solver on the same configuration. The
// NoSampling configurations isolate the finish hot path; with the identity
// labeling and DSU auxiliary arrays retained, the Solver side runs
// allocation-free. The sampled configuration shows the smaller win when the
// sampling phase still allocates its own result.
func BenchmarkSolverReuse(b *testing.B) {
	g := benchPanel(b)["social"]
	for _, c := range []struct{ name, spec string }{
		{"RemCAS-NoSample", "none;uf;rem-cas;naive;split-one"},
		{"Hooks-NoSample", "none;uf;hooks;naive;split-one"},
		{"JTB-NoSample", "none;uf;jtb;two-try"},
		{"RemCAS-KOut", "kout;uf;rem-cas;naive;split-one"},
	} {
		cfg, err := ParseConfig(c.spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/FreeFunction", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Connectivity(g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/Solver", func(b *testing.B) {
			b.ReportAllocs()
			solver := MustCompile(cfg)
			for i := 0; i < b.N; i++ {
				if _, err := solver.ComponentsOn(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolverBackends compares the two graph representations on the
// paper's compressed-graph axis (RMAT at scale 20): resident graph bytes
// and solve throughput on CSR and running directly on the byte-compressed
// encoding. The graph-bytes and bytes/directed-edge metrics make the
// space/throughput tradeoff diffable across PRs — compressed should hold
// ≥2x smaller resident bytes at no more than ~2x slowdown. The grid row
// (1500×1500, 300×300 under -short) is the high-diameter finish sweep,
// unsampled, that the RMAT rows never run: every edge is unioned over long
// parent chains.
func BenchmarkSolverBackends(b *testing.B) {
	scale, side := 20, 1500
	if testing.Short() {
		scale, side = 16, 300
	}
	g := NewRMAT(scale, 16*(1<<scale), 3)
	grid := NewGrid2D(side, side)
	c, gridC := Compress(g), Compress(grid)
	report := func(b *testing.B, rep GraphRep) {
		b.ReportAllocs()
		b.ReportMetric(float64(rep.SizeBytes()), "graph-bytes")
		b.ReportMetric(float64(rep.SizeBytes())/float64(rep.NumDirectedEdges()), "bytes/edge")
	}
	for _, row := range []struct {
		name, spec string
		csr        *Graph
		compressed *CompressedGraph
	}{
		{"", "none;uf;rem-cas;naive;split-one", g, c},
		{"", "kout;uf;rem-cas;naive;split-one", g, c},
		{"", "bfs;uf;rem-cas;naive;split-one", g, c},
		{"", "kout;lt;PRF", g, c},
		{"grid/", "none;uf;rem-cas;naive;split-one", grid, gridC},
	} {
		cfg, err := ParseConfig(row.spec)
		if err != nil {
			b.Fatal(err)
		}
		for _, rep := range []struct {
			name string
			g    GraphRep
		}{{"CSR", row.csr}, {"Compressed", row.compressed}} {
			b.Run(row.name+row.spec+"/"+rep.name, func(b *testing.B) {
				solver := MustCompile(cfg)
				report(b, rep.g)
				for i := 0; i < b.N; i++ {
					if _, err := solver.ComponentsOn(rep.g); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCompile measures compilation itself: validation plus closure
// construction, no graph work.
func BenchmarkCompile(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
