package connectit

// Concurrent ingest-engine benchmarks (beyond the paper's synchronous
// batch tables): mixed update/query scheduling under real goroutine
// concurrency, per stream type, against a coarse-locked STINGER baseline.
// The bench-smoke CI job runs these at -benchtime=1x to seed the perf
// trajectory; BENCH_* metrics are updates/s and queries/s.

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"connectit/internal/core"
	"connectit/internal/stinger"
)

const benchIngestProducers = 8

// driveMixed runs the shared concurrent mixed-workload driver with the
// benchmark's producer count and returns the number of queries issued.
func driveMixed(update func(u, v uint32), connected func(u, v uint32) bool,
	edges []Edge, n int, mix float64) uint64 {
	return core.Drive(update, connected, edges, n, benchIngestProducers, mix)
}

// driveStream is driveMixed against a Stream's error-returning lifecycle
// surface.
func driveStream(st *Stream, edges []Edge, n int, mix float64) uint64 {
	return core.DriveStream(st, edges, n, benchIngestProducers, mix)
}

// BenchmarkStreamMixedRatio measures the concurrent ingest engine at
// 90/10, 50/50, and 10/90 update:query mixes, one algorithm per stream
// type plus the coarse-locked STINGER baseline. Metrics: updates/s and
// queries/s (wall-clock, 8 producers).
func BenchmarkStreamMixedRatio(b *testing.B) {
	n := 1 << 15
	edges := BarabasiAlbertEdges(n, 8, 17)
	mixes := []struct {
		name string
		q    float64
	}{
		{"90-10", 0.1},
		{"50-50", 0.5},
		{"10-90", 0.9},
	}
	algos := []struct {
		name string
		alg  Algorithm
	}{
		{"type-i/rem-cas", MustParseAlgorithm("uf;rem-cas;naive;split-one")},
		{"type-ii/sv", MustParseAlgorithm("sv")},
		{"type-ii/lt-CRFA", MustParseAlgorithm("lt;CRFA")},
		{"type-iii/rem-splice", MustParseAlgorithm("uf;rem-cas;naive;splice")},
	}
	for _, mix := range mixes {
		for _, a := range algos {
			b.Run(fmt.Sprintf("%s/%s", mix.name, a.name), func(b *testing.B) {
				solver := MustCompile(Config{Algorithm: a.alg})
				var updates, queries, epochs, rounds uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st, err := solver.Stream(n)
					if err != nil {
						b.Fatal(err)
					}
					q := driveStream(st, edges, n, mix.q)
					st.Sync()
					updates += uint64(len(edges))
					queries += q
					stats := st.Stats()
					epochs += stats.Epochs
					rounds += stats.Rounds
				}
				secs := b.Elapsed().Seconds()
				b.ReportMetric(float64(updates)/secs, "updates/s")
				b.ReportMetric(float64(queries)/secs, "queries/s")
				if rounds > 0 {
					b.ReportMetric(float64(epochs)/float64(rounds), "epochs/round")
				}
			})
		}
		b.Run(fmt.Sprintf("%s/stinger-coarse", mix.name), func(b *testing.B) {
			var updates, queries uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := stinger.NewCoarse(n)
				q := driveMixed(s.Update, s.Connected, edges, n, mix.q)
				updates += uint64(len(edges))
				queries += q
			}
			secs := b.Elapsed().Seconds()
			b.ReportMetric(float64(updates)/secs, "updates/s")
			b.ReportMetric(float64(queries)/secs, "queries/s")
		})
	}
}

// BenchmarkStreamUpdateParallel is Stream.Update alone on the default
// (Type i) configuration, one goroutine per P over a shuffled RMAT edge
// list: the per-call price of the ingest layer — accounting, gate, union.
// Run with -cpu 1,2: each producer books its calls on the accounting line
// its stack picks, and a row at one goroutine cannot show what two cost
// (DESIGN.md §9 "Per-operation accounting"). One untimed UpdateBatch pass
// over the list comes first, so every timed call is intra-component, as in
// the tail of any power-law stream, at any -benchtime: the steady state is
// the inlined parent comparison, the pre-gate Joined ascent where the
// parents differ, and one accounting add, with no gate entry and no union.
func BenchmarkStreamUpdateParallel(b *testing.B) {
	const scale = 18
	edges := RMATEdges(scale, 1<<21, 41)
	rand.New(rand.NewSource(41)).Shuffle(len(edges), func(i, j int) {
		edges[i], edges[j] = edges[j], edges[i]
	})
	st, err := NewStream(1<<scale, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if err := st.UpdateBatch(edges); err != nil {
		b.Fatal(err)
	}
	var starts atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each goroutine walks the list from its own offset.
		i := int(starts.Add(1) * 0x9e3779b97f4a7c15 % uint64(len(edges)))
		for pb.Next() {
			e := edges[i]
			if err := st.Update(e.U, e.V); err != nil {
				b.Error(err)
				return
			}
			if i++; i == len(edges) {
				i = 0
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
}

// BenchmarkStreamEpochSize sweeps the epoch size of a buffered (Type ii)
// stream: small epochs pay per-round overhead (softened by coalescing,
// which epochs/round reports), large epochs batch better but delay
// visibility.
func BenchmarkStreamEpochSize(b *testing.B) {
	n := 1 << 15
	edges := BarabasiAlbertEdges(n, 8, 23)
	solver := MustCompile(Config{Algorithm: MustParseAlgorithm("sv")})
	for _, size := range []int{64, 256, 4096, 65536} {
		b.Run(fmt.Sprintf("epoch=%d", size), func(b *testing.B) {
			var epochs, rounds uint64
			for i := 0; i < b.N; i++ {
				st, err := solver.Stream(n, StreamOptions{EpochSize: size})
				if err != nil {
					b.Fatal(err)
				}
				driveStream(st, edges, n, 0.1)
				st.Sync()
				stats := st.Stats()
				epochs += stats.Epochs
				rounds += stats.Rounds
			}
			secs := b.Elapsed().Seconds()
			b.ReportMetric(float64(b.N)*float64(len(edges))/secs, "updates/s")
			if rounds > 0 {
				b.ReportMetric(float64(epochs)/float64(rounds), "epochs/round")
			}
		})
	}
}
