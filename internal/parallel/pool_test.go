package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// withProcs runs f under an adjusted GOMAXPROCS: the pool sizes jobs off
// GOMAXPROCS at each call, so raising it engages the parallel machinery
// even on a single-core machine.
func withProcs(t *testing.T, procs int, f func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	f()
}

func TestPoolForCoversAllIndices(t *testing.T) {
	withProcs(t, 4, func() {
		for _, n := range []int{1, 7, 1000, 100_000} {
			seen := make([]atomic.Bool, n)
			For(n, func(i int) {
				if seen[i].Swap(true) {
					t.Errorf("n=%d: index %d visited twice", n, i)
				}
			})
			for i := range seen {
				if !seen[i].Load() {
					t.Fatalf("n=%d: index %d not visited", n, i)
				}
			}
		}
	})
}

// TestPoolConcurrentCallers hammers the pool from many goroutines at once:
// calls that lose the pool race run inline, but every call must still cover
// its whole range exactly once.
func TestPoolConcurrentCallers(t *testing.T) {
	withProcs(t, 4, func() {
		const goroutines = 8
		const rounds = 50
		const n = 10_000
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					var sum atomic.Int64
					ForGrained(n, 64, func(lo, hi int) {
						local := int64(0)
						for i := lo; i < hi; i++ {
							local += int64(i)
						}
						sum.Add(local)
					})
					if want := int64(n) * (n - 1) / 2; sum.Load() != want {
						t.Errorf("goroutine %d round %d: sum = %d, want %d", g, r, sum.Load(), want)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// TestPoolNestedParallelism checks the deadlock-freedom contract: a body
// running on the pool may issue further parallel calls, which run inline
// (sequentially) rather than blocking on the busy pool.
func TestPoolNestedParallelism(t *testing.T) {
	withProcs(t, 4, func() {
		const outer = 4000
		const inner = 100
		var total atomic.Int64
		ForGrained(outer, 16, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				var local atomic.Int64
				For(inner, func(j int) { local.Add(1) })
				if local.Load() != inner {
					t.Errorf("nested For covered %d of %d", local.Load(), inner)
					return
				}
				total.Add(local.Load())
			}
		})
		if total.Load() != outer*inner {
			t.Fatalf("total = %d, want %d", total.Load(), outer*inner)
		}
		// Nested Run and ForWorkerSized must not deadlock either.
		var viaRun atomic.Int64
		ForGrained(outer, 16, func(lo, hi int) {
			Run(func(w *Worker) { viaRun.Add(int64(hi - lo)) })
			ForWorkerSized(4, 1, Width(4, 1), func(w *Worker, lo, hi int) {})
		})
	})
}

func TestForWorkerIdentity(t *testing.T) {
	withProcs(t, 4, func() {
		const n = 100_000
		const grain = 64
		width := Width(n, grain)
		if width < 1 || width > MaxWorkers {
			t.Fatalf("Width = %d out of range", width)
		}
		// Each worker counts its own iterations in a private padded slot;
		// the slots must sum to n and only IDs < width may appear.
		counts := make([]int64, MaxWorkers*16)
		ForWorkerSized(n, grain, width, func(w *Worker, lo, hi int) {
			if w.ID() >= width {
				t.Errorf("worker ID %d >= width %d", w.ID(), width)
			}
			counts[w.ID()*16] += int64(hi - lo)
		})
		var sum int64
		for i := range counts {
			sum += counts[i]
		}
		if sum != n {
			t.Fatalf("workers covered %d iterations, want %d", sum, n)
		}

		// ForWorkerSized clamps the participant set below the caller's
		// bound even though GOMAXPROCS allows more.
		var covered atomic.Int64
		ForWorkerSized(n, grain, 2, func(w *Worker, lo, hi int) {
			if w.ID() >= 2 {
				t.Errorf("ForWorkerSized(maxID=2) ran worker %d", w.ID())
			}
			covered.Add(int64(hi - lo))
		})
		if covered.Load() != n {
			t.Fatalf("ForWorkerSized covered %d of %d", covered.Load(), n)
		}
	})
}

func TestRunVisitsDistinctWorkers(t *testing.T) {
	withProcs(t, 4, func() {
		var mu sync.Mutex
		ids := map[int]int{}
		Run(func(w *Worker) {
			mu.Lock()
			ids[w.ID()]++
			mu.Unlock()
		})
		if len(ids) != 4 {
			t.Fatalf("Run visited %d workers, want 4 (ids %v)", len(ids), ids)
		}
		for id, c := range ids {
			if c != 1 {
				t.Fatalf("worker %d ran %d times, want 1", id, c)
			}
		}
	})
}

// TestPoolProcsTransitions moves GOMAXPROCS up and down across calls: the
// pool must size each job off the current value and excess workers must
// stay parked without corrupting later jobs.
func TestPoolProcsTransitions(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 4, 2, 6, 1, 3} {
		runtime.GOMAXPROCS(procs)
		for r := 0; r < 3; r++ {
			got := ReduceAdd(50_000, func(i int) uint64 { return uint64(i) })
			if want := uint64(50_000) * (50_000 - 1) / 2; got != want {
				t.Fatalf("procs=%d: ReduceAdd = %d, want %d", procs, got, want)
			}
		}
	}
}

// TestPoolStressMixed drives every primitive from concurrent goroutines
// under the race detector.
func TestPoolStressMixed(t *testing.T) {
	withProcs(t, 4, func() {
		const goroutines = 6
		rounds := 30
		if testing.Short() {
			rounds = 10
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					switch (g + r) % 4 {
					case 0:
						n := 5000 + g*100
						if got := Count(n, func(i int) bool { return i%3 == 0 }); got != uint64((n+2)/3) {
							t.Errorf("Count = %d, want %d", got, (n+2)/3)
						}
					case 1:
						data := make([]uint64, 3000)
						for i := range data {
							data[i] = 2
						}
						if got := ScanExclusive(data); got != 6000 {
							t.Errorf("ScanExclusive total = %d", got)
						}
					case 2:
						var f Filter
						got := f.Indices(4096, func(i int) bool { return i%2 == 0 })
						if len(got) != 2048 {
							t.Errorf("Filter kept %d, want 2048", len(got))
						}
					case 3:
						var sum atomic.Int64
						ForWorkerSized(8192, 128, Width(8192, 128), func(w *Worker, lo, hi int) {
							sum.Add(int64(hi - lo))
						})
						if sum.Load() != 8192 {
							t.Errorf("ForWorkerSized covered %d", sum.Load())
						}
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// TestForZeroAllocsSteadyState is the allocation regression guard for the
// pool: once the body closure exists and the pool has warmed up, a
// parallel.For costs zero heap allocations per call.
func TestForZeroAllocsSteadyState(t *testing.T) {
	if testing.Short() && runtime.GOMAXPROCS(0) == 1 {
		// Still meaningful sequentially, but the interesting guard is the
		// pooled path below.
		t.Log("running with GOMAXPROCS raised to 4")
	}
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	data := make([]uint32, 1<<16)
	body := func(i int) { data[i]++ }
	For(len(data), body) // warm up: spawn workers, grow pool state
	res := testing.Benchmark(func(b *testing.B) {
		runtime.GOMAXPROCS(4)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			For(len(data), body)
		}
	})
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("steady-state parallel.For allocates %d allocs/op, want 0", a)
	}
	gbody := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			data[i]++
		}
	}
	res = testing.Benchmark(func(b *testing.B) {
		runtime.GOMAXPROCS(4)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ForGrained(len(data), 512, gbody)
		}
	})
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("steady-state parallel.ForGrained allocates %d allocs/op, want 0", a)
	}
}

func TestPoolStatsAdvance(t *testing.T) {
	withProcs(t, 4, func() {
		before := PoolStats()
		For(1<<16, func(i int) {})
		after := PoolStats()
		if after.Calls <= before.Calls {
			t.Fatalf("Calls did not advance: %+v -> %+v", before, after)
		}
		if after.Chunks <= before.Chunks {
			t.Fatalf("Chunks did not advance: %+v -> %+v", before, after)
		}
	})
}

func TestForGrainedSpawnMatchesFor(t *testing.T) {
	withProcs(t, 4, func() {
		var a, b atomic.Int64
		ForGrained(12345, 100, func(lo, hi int) { a.Add(int64(hi - lo)) })
		ForGrainedSpawn(12345, 100, func(lo, hi int) { b.Add(int64(hi - lo)) })
		if a.Load() != b.Load() || a.Load() != 12345 {
			t.Fatalf("coverage mismatch: pool %d spawn %d", a.Load(), b.Load())
		}
	})
}
