package connectit

// Benchmarks for the forest-backed query engine (DESIGN.md §12). The
// engine retains BFS scratch and the histogram cache across calls, so the
// steady-state numbers here are the serving-path cost of GET /v1/path and
// the histogram mode of /v1/components. BenchmarkQueryLabelsBuild is the
// other end: constructing the label-backed engine, the step every static
// run pays after its solve. The bench-smoke CI job runs these at
// -benchtime=1x alongside the stream benches.

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchQueryEngine builds a quiesced stream-backed engine over a power-law
// graph: one giant component plus fringe, the serving-path shape.
func benchQueryEngine(b *testing.B, n int) *Query {
	b.Helper()
	st, err := NewStream(n, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	if err := st.UpdateBatch(BarabasiAlbertEdges(n, 8, 17)); err != nil {
		b.Fatal(err)
	}
	st.Sync()
	q, err := st.Query()
	if err != nil {
		b.Fatal(err)
	}
	// Absorb the full forest up front so the loop measures queries, not the
	// first pull.
	if _, err := q.NumComponents(); err != nil {
		b.Fatal(err)
	}
	return q
}

// BenchmarkQueryPathBetween measures forest path reconstruction between
// random vertex pairs (mostly inside the giant component, so the BFS does
// real traversal work).
func BenchmarkQueryPathBetween(b *testing.B) {
	n := 1 << 15
	q := benchQueryEngine(b, n)
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	b.ResetTimer()
	hops := 0
	for i := 0; i < b.N; i++ {
		path, _, err := q.PathBetween(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		if err != nil {
			b.Fatal(err)
		}
		hops += len(path)
	}
	b.ReportMetric(float64(hops)/float64(b.N), "hops/op")
}

// BenchmarkQueryConnected measures the point lookup the path endpoint
// degenerates to when only the verdict is needed: two find walks over the
// compressed index.
func BenchmarkQueryConnected(b *testing.B) {
	n := 1 << 15
	q := benchQueryEngine(b, n)
	rng := rand.New(rand.NewSource(7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Connected(uint32(rng.Intn(n)), uint32(rng.Intn(n))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryHistogram measures the component-size histogram: the first
// call per forest length scans and sorts the roots, subsequent calls hit
// the cache and only pay the copy — the loop measures the cached path, the
// serving steady state.
func BenchmarkQueryHistogram(b *testing.B) {
	n := 1 << 15
	q := benchQueryEngine(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.ComponentHistogram(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryLabelsBuild measures QueryLabels over the labelling shapes
// that stress the size accumulation differently: one run per chunk
// (one-giant), a giant with a scattered singleton fringe (the RMAT shape),
// two giants alternating vertex by vertex (a new run, and a shared counter,
// at every vertex), and no two vertices sharing a label. count/<shape> is
// QueryLabels + NumComponents + one Connected, the benchmark's read_ms leg;
// sizes/<shape> is QueryLabels + LargestComponent, cmd/connectit's summary,
// which pays for the component sizes too. Compare -cpu 1 with -cpu 2: no
// shape may get slower with a second worker.
func BenchmarkQueryLabelsBuild(b *testing.B) {
	const n = 2_000_000
	shapes := []struct {
		name  string
		label func(i uint32) uint32
	}{
		{"one-giant", func(uint32) uint32 { return 0 }},
		{"giant+singletons", func(i uint32) uint32 {
			if i == 0 || (i*0x9e3779b1>>16)%100 < 57 {
				return 0
			}
			return i
		}},
		{"interleaved-2", func(i uint32) uint32 { return i & 1 }},
		{"all-singletons", func(i uint32) uint32 { return i }},
	}
	legs := []struct {
		name string
		read func(q *Query) error
	}{
		{"count", func(q *Query) error {
			if c, err := q.NumComponents(); err != nil || c == 0 {
				return fmt.Errorf("NumComponents = (%d, %v)", c, err)
			}
			_, err := q.Connected(0, n-1)
			return err
		}},
		{"sizes", func(q *Query) error {
			if _, size, err := q.LargestComponent(); err != nil || size == 0 {
				return fmt.Errorf("LargestComponent size = (%d, %v)", size, err)
			}
			return nil
		}},
	}
	for _, sh := range shapes {
		labels := make([]uint32, n)
		for i := range labels {
			labels[i] = sh.label(uint32(i))
		}
		for _, leg := range legs {
			b.Run(leg.name+"/"+sh.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(4 * n)
				for i := 0; i < b.N; i++ {
					if err := leg.read(QueryLabels(labels)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
