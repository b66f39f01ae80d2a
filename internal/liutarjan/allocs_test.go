package liutarjan

import (
	"runtime"
	"testing"

	"connectit/internal/graph"
)

// TestEdgeRunnerSteadyStateAllocs is the allocation regression guard for
// the Liu-Tarjan round loop: once an EdgeRunner has warmed up (next array,
// alter double-buffers, hoisted bodies), repeated Runs over same-shaped
// batches perform zero heap allocations — the property a compiled Solver's
// repeated Liu-Tarjan finishes rely on.
func TestEdgeRunnerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		// The detector's own bookkeeping allocates when a round wakes pool
		// workers, and instrumented rounds are too slow for the benchmark
		// loop to amortize that below one per op; the guard is about this
		// package's allocations, which the uninstrumented run measures.
		t.Skip("allocs/op is not meaningful under the race detector")
	}
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	const n = 1 << 12
	rng := uint64(42)
	edges := make([]graph.Edge, 6*n)
	for i := range edges {
		rng = graph.Hash64(rng)
		u := uint32(rng % n)
		rng = graph.Hash64(rng)
		v := uint32(rng % n)
		if u == v {
			v = (v + 1) % n
		}
		edges[i] = graph.Edge{U: u, V: v}
	}
	ident := identity(n)
	parent := identity(n)

	for _, tc := range []struct {
		name string
		v    Variant
	}{
		{"PRS/plain", Variant{ParentConnect, RootUpdate, OneShortcut, NoAlter}},
		{"PRSA/plain", Variant{ParentConnect, RootUpdate, OneShortcut, Alter}},
		{"CRFA/plain", Variant{Connect, RootUpdate, FullShortcut, Alter}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewEdgeRunner(tc.v)
			copy(parent, ident)
			r.Run(edges, parent, nil) // warm up: grow scratch, spawn pool workers
			res := testing.Benchmark(func(b *testing.B) {
				runtime.GOMAXPROCS(4)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(parent, ident)
					r.Run(edges, parent, nil)
				}
			})
			if a := res.AllocsPerOp(); a != 0 {
				t.Fatalf("steady-state EdgeRunner.Run allocates %d allocs/op, want 0", a)
			}
		})
	}
}
