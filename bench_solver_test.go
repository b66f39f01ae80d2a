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
// ≥2x smaller resident bytes at no more than ~2x slowdown.
func BenchmarkSolverBackends(b *testing.B) {
	scale := 20
	if testing.Short() {
		scale = 16
	}
	g := NewRMAT(scale, 16*(1<<scale), 3)
	c := Compress(g)
	report := func(b *testing.B, rep GraphRep) {
		b.ReportAllocs()
		b.ReportMetric(float64(rep.SizeBytes()), "graph-bytes")
		b.ReportMetric(float64(rep.SizeBytes())/float64(rep.NumDirectedEdges()), "bytes/edge")
	}
	for _, spec := range []string{
		"none;uf;rem-cas;naive;split-one",
		"kout;uf;rem-cas;naive;split-one",
		"bfs;uf;rem-cas;naive;split-one",
		"kout;lt;PRF",
	} {
		cfg, err := ParseConfig(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec+"/CSR", func(b *testing.B) {
			solver := MustCompile(cfg)
			report(b, g)
			for i := 0; i < b.N; i++ {
				if _, err := solver.ComponentsOn(g); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(spec+"/Compressed", func(b *testing.B) {
			solver := MustCompile(cfg)
			report(b, c)
			for i := 0; i < b.N; i++ {
				if _, err := solver.ComponentsOn(c); err != nil {
					b.Fatal(err)
				}
			}
		})
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
