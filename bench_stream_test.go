package connectit

// Streaming benchmarks: Table 4 (maximum ingestion throughput per
// algorithm), Figures 4/16 (throughput vs batch size), Figure 17 (mixed
// insert/query ratios), Figure 18 (per-batch latency), and Table 5 (the
// STINGER comparison).

import (
	"fmt"
	"testing"

	"connectit/internal/graph"
	"connectit/internal/stinger"
)

// streamFamilies are Table 4's rows, selected by canonical spec strings.
func streamFamilies() []Algorithm {
	var out []Algorithm
	for _, spec := range []string{
		"uf;early;naive;split-one",
		"uf;hooks;naive;split-one",
		"uf;async;naive;split-one",
		"uf;rem-cas;naive;split-one",
		"uf;rem-lock;naive;split-one",
		"uf;jtb;two-try",
		"lt;CRFA", // the paper's fastest streaming LT
		"sv",
	} {
		out = append(out, MustParseAlgorithm(spec))
	}
	return out
}

var benchStreams = map[string]func() ([]Edge, int){
	"social": func() ([]Edge, int) {
		g := NewRMAT(15, 16*(1<<15), 42)
		return g.Edges(), g.NumVertices()
	},
	"rmat-stream": func() ([]Edge, int) {
		n := 1 << 17
		return RMATEdges(17, 10*n, 5), n
	},
	"ba-stream": func() ([]Edge, int) {
		n := 1 << 16
		return BarabasiAlbertEdges(n, 10, 6), n
	},
}

// BenchmarkTable4StreamingThroughput regenerates Table 4: the whole edge
// stream ingested as one batch; throughput = edges/sec (reported as the
// edges/op metric divided by ns/op by cmd/experiments).
func BenchmarkTable4StreamingThroughput(b *testing.B) {
	for sname, mk := range benchStreams {
		edges, n := mk()
		for _, alg := range streamFamilies() {
			b.Run(fmt.Sprintf("%s/%s", sname, alg.Name()), func(b *testing.B) {
				b.SetBytes(int64(len(edges))) // bytes/op metric = edges/op
				solver := MustCompile(Config{Algorithm: alg})
				for i := 0; i < b.N; i++ {
					inc, err := solver.Stream(n)
					if err != nil {
						b.Fatal(err)
					}
					inc.ProcessBatch(edges, nil)
				}
			})
		}
	}
}

// BenchmarkFigure4ThroughputVsBatch regenerates Figures 4/16: ingestion
// throughput as a function of batch size.
func BenchmarkFigure4ThroughputVsBatch(b *testing.B) {
	edges, n := benchStreams["ba-stream"]()
	algos := []Algorithm{
		MustParseAlgorithm("uf;rem-cas;naive;split-one"),
		MustParseAlgorithm("uf;async;naive;split-one"),
		MustParseAlgorithm("sv"),
	}
	for _, batch := range []int{1_000, 10_000, 100_000, 1_000_000} {
		for _, alg := range algos {
			b.Run(fmt.Sprintf("batch=%d/%s", batch, alg.Name()), func(b *testing.B) {
				b.SetBytes(int64(len(edges)))
				solver := MustCompile(Config{Algorithm: alg})
				for i := 0; i < b.N; i++ {
					inc, err := solver.Stream(n)
					if err != nil {
						b.Fatal(err)
					}
					for lo := 0; lo < len(edges); lo += batch {
						hi := lo + batch
						if hi > len(edges) {
							hi = len(edges)
						}
						inc.ProcessBatch(edges[lo:hi], nil)
					}
				}
			})
		}
	}
}

// BenchmarkFigure17MixedBatch regenerates Figure 17: Union-Rem-CAS variants
// under varying insert-to-query ratios (1/ratio random queries per update,
// shuffled into the batch).
func BenchmarkFigure17MixedBatch(b *testing.B) {
	edges, n := benchStreams["ba-stream"]()
	variants := []Algorithm{
		MustParseAlgorithm("uf;rem-cas;naive;split-one"),
		MustParseAlgorithm("uf;rem-cas;split;split-one"),
		MustParseAlgorithm("uf;rem-cas;halve;halve-one"),
	}
	for _, ratio := range []float64{0.1, 0.5, 1.0} {
		nq := int(float64(len(edges)) * (1/ratio - 1))
		if ratio == 1.0 {
			nq = 0
		}
		queries := make([][2]uint32, nq)
		for i := range queries {
			h := graph.Hash64(uint64(i) + 77)
			queries[i] = [2]uint32{uint32(h % uint64(n)), uint32(graph.Hash64(h) % uint64(n))}
		}
		for _, alg := range variants {
			b.Run(fmt.Sprintf("ratio=%.1f/%s", ratio, alg.Name()), func(b *testing.B) {
				b.SetBytes(int64(len(edges) + nq))
				solver := MustCompile(Config{Algorithm: alg})
				for i := 0; i < b.N; i++ {
					inc, err := solver.Stream(n)
					if err != nil {
						b.Fatal(err)
					}
					inc.ProcessBatch(edges, queries)
				}
			})
		}
	}
}

// BenchmarkFigure18Latency regenerates Figure 18's per-batch latency curve:
// the reported ns/op at each batch size is the batch latency.
func BenchmarkFigure18Latency(b *testing.B) {
	edges, n := benchStreams["rmat-stream"]()
	solver := MustCompile(Config{Algorithm: MustParseAlgorithm("uf;rem-cas;naive;split-one")})
	for _, batch := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			inc, err := solver.Stream(n)
			if err != nil {
				b.Fatal(err)
			}
			pos := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if pos+batch > len(edges) {
					pos = 0
				}
				inc.ProcessBatch(edges[pos:pos+batch], nil)
				pos += batch
			}
		})
	}
}

// BenchmarkTable5Stinger regenerates Table 5: STINGER's streaming CC vs
// ConnectIt's Union-Rem-CAS(SplitAtomicOne) ingesting RMAT batches of
// varying sizes into an initially empty graph. ns/op is the per-batch time
// the table reports.
func BenchmarkTable5Stinger(b *testing.B) {
	const scale = 14 // 2^14 vertices; the paper uses 2^20 with hours-long STINGER init
	n := 1 << scale
	stream := RMATEdges(scale, 1<<21, 9)
	for _, batch := range []int{10, 100, 1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("STINGER/batch=%d", batch), func(b *testing.B) {
			s := stinger.New(n)
			pos := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if pos+batch > len(stream) {
					pos = 0
				}
				s.InsertBatch(stream[pos : pos+batch])
				pos += batch
			}
		})
		b.Run(fmt.Sprintf("ConnectIt/batch=%d", batch), func(b *testing.B) {
			inc, err := NewStream(n, Config{Algorithm: MustParseAlgorithm("uf;rem-cas;naive;split-one")})
			if err != nil {
				b.Fatal(err)
			}
			pos := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if pos+batch > len(stream) {
					pos = 0
				}
				inc.ProcessBatch(stream[pos:pos+batch], nil)
				pos += batch
			}
		})
	}
}

// BenchmarkStreamTypeDispatch measures the three streaming types' overhead
// on the same workload (an ablation beyond the paper's tables: Type i vs
// Type iii costs the barrier, Type ii costs the synchronous rounds).
func BenchmarkStreamTypeDispatch(b *testing.B) {
	edges, n := benchStreams["ba-stream"]()
	cases := []struct {
		name string
		alg  Algorithm
	}{
		{"type-i-async", MustParseAlgorithm("uf;rem-cas;naive;split-one")},
		{"type-iii-phased", MustParseAlgorithm("uf;rem-cas;naive;splice")},
		{"type-ii-synchronous", MustParseAlgorithm("sv")},
	}
	queries := make([][2]uint32, len(edges)/10)
	for i := range queries {
		h := graph.Hash64(uint64(i))
		queries[i] = [2]uint32{uint32(h % uint64(n)), uint32(graph.Hash64(h) % uint64(n))}
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(edges) + len(queries)))
			solver := MustCompile(Config{Algorithm: c.alg})
			for i := 0; i < b.N; i++ {
				inc, err := solver.Stream(n)
				if err != nil {
					b.Fatal(err)
				}
				inc.ProcessBatch(edges, queries)
			}
		})
	}
}
