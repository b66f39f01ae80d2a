package liutarjan

import (
	"errors"
	"runtime"
	"testing"

	"connectit/internal/graph"
)

// seqDSU is the sequential oracle for forest invariant checks.
type seqDSU struct{ p []uint32 }

func newSeqDSU(n int) *seqDSU {
	d := &seqDSU{p: make([]uint32, n)}
	for i := range d.p {
		d.p[i] = uint32(i)
	}
	return d
}

func (d *seqDSU) find(x uint32) uint32 {
	for d.p[x] != x {
		d.p[x] = d.p[d.p[x]]
		x = d.p[x]
	}
	return x
}

func (d *seqDSU) union(u, v uint32) bool {
	ru, rv := d.find(u), d.find(v)
	if ru == rv {
		return false
	}
	d.p[ru] = rv
	return true
}

func forestRandEdges(n, m int, seed uint64) []graph.Edge {
	rng := seed
	edges := make([]graph.Edge, m)
	for i := range edges {
		rng = graph.Hash64(rng)
		u := uint32(rng % uint64(n))
		rng = graph.Hash64(rng)
		v := uint32(rng % uint64(n))
		if u == v {
			v = (v + 1) % uint32(n)
		}
		edges[i] = graph.Edge{U: u, V: v}
	}
	return edges
}

// TestForestEdgeRunnerRejectsNonRootUp: only root-based variants can carry
// witnesses (§3.4).
func TestForestEdgeRunnerRejectsNonRootUp(t *testing.T) {
	if _, err := NewForestEdgeRunner(Variant{Connect, SimpleUpdate, OneShortcut, NoAlter}); !errors.Is(err, ErrNotRootBased) {
		t.Fatalf("SimpleUpdate variant: err = %v, want ErrNotRootBased", err)
	}
	if _, err := NewForestEdgeRunner(Variant{Connect, RootUpdate, FullShortcut, Alter}); err != nil {
		t.Fatalf("RootUpdate variant: err = %v, want nil", err)
	}
}

// TestForestEdgeRunnerInvariants drives batches through witness-capturing
// runners for several RootUp variants and checks the streaming forest
// contract after every batch: partition matches a sequential oracle, the
// cumulative forest holds exactly n - #components input edges, and those
// edges form a forest.
func TestForestEdgeRunnerInvariants(t *testing.T) {
	const n = 1 << 10
	for _, tc := range []struct {
		name string
		v    Variant
	}{
		// The registry's RootUp variants (Connect requires Alter, §D.4).
		{"CRSA", Variant{Connect, RootUpdate, OneShortcut, Alter}},
		{"CRFA", Variant{Connect, RootUpdate, FullShortcut, Alter}},
		{"PRS", Variant{ParentConnect, RootUpdate, OneShortcut, NoAlter}},
		{"PRF", Variant{ParentConnect, RootUpdate, FullShortcut, NoAlter}},
		{"PRFA", Variant{ParentConnect, RootUpdate, FullShortcut, Alter}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewForestEdgeRunner(tc.v)
			if err != nil {
				t.Fatal(err)
			}
			parent := make([]uint32, n)
			for i := range parent {
				parent[i] = uint32(i)
			}
			oracle := newSeqDSU(n)
			inSet := make(map[[2]uint32]bool)
			var forest []graph.Edge

			for batch := 0; batch < 6; batch++ {
				edges := forestRandEdges(n, 600, uint64(batch)*1013+5)
				for _, e := range edges {
					u, v := e.U, e.V
					if v < u {
						u, v = v, u
					}
					inSet[[2]uint32{u, v}] = true
					oracle.union(e.U, e.V)
				}
				_, forest = r.Run(edges, parent, nil, forest)

				chase := func(x uint32) uint32 {
					for parent[x] != x {
						x = parent[x]
					}
					return x
				}
				for v := uint32(1); v < n; v++ {
					got := chase(v) == chase(v-1)
					want := oracle.find(v) == oracle.find(v-1)
					if got != want {
						t.Fatalf("batch %d: connectivity(%d,%d) = %v, oracle %v", batch, v-1, v, got, want)
					}
				}

				comps := 0
				for v := uint32(0); v < n; v++ {
					if oracle.find(v) == v {
						comps++
					}
				}
				if len(forest) != n-comps {
					t.Fatalf("batch %d: |forest| = %d, want n - #components = %d", batch, len(forest), n-comps)
				}
				check := newSeqDSU(n)
				for _, e := range forest {
					u, v := e.U, e.V
					if v < u {
						u, v = v, u
					}
					if !inSet[[2]uint32{u, v}] {
						t.Fatalf("batch %d: forest edge {%d,%d} was never inserted", batch, e.U, e.V)
					}
					if !check.union(e.U, e.V) {
						t.Fatalf("batch %d: forest edge {%d,%d} closes a cycle", batch, e.U, e.V)
					}
				}
			}
		})
	}
}

// TestForestEdgeRunnerSteadyStateAllocs: once warmed (packed next array,
// work list, forest capacity), re-running already-connected batches
// performs zero heap allocations.
func TestForestEdgeRunnerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocs/op is not meaningful under the race detector (see TestEdgeRunnerSteadyStateAllocs)")
	}
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	const n = 1 << 12
	edges := forestRandEdges(n, 4*n, 42)
	r, err := NewForestEdgeRunner(Variant{Connect, RootUpdate, FullShortcut, Alter})
	if err != nil {
		t.Fatal(err)
	}
	parent := make([]uint32, n)
	for i := range parent {
		parent[i] = uint32(i)
	}
	var forest []graph.Edge
	_, forest = r.Run(edges, parent, nil, forest) // warm up

	res := testing.Benchmark(func(b *testing.B) {
		runtime.GOMAXPROCS(4)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, forest = r.Run(edges, parent, nil, forest)
		}
	})
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("steady-state ForestEdgeRunner.Run allocates %d allocs/op, want 0", a)
	}
}
