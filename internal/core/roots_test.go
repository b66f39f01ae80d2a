package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"connectit/internal/graph"
	"connectit/internal/testutil"
)

// mustCompile compiles spec or fails the test.
func mustCompile(t *testing.T, spec string) *Compiled {
	t.Helper()
	cfg, err := ParseConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRootsConcurrentSolvers runs one unsampled union-find Compiled per
// goroutine, each on its own graph with one vertex count between them, and
// checks every result against the BFS oracle as soon as it is returned:
// union-find is min-based, so each vertex's root is its component's least
// vertex, the oracle's label. An
// unsampled run returns its instance's result buffer, so two instances
// sharing that buffer (or any other per-run array) would overwrite each
// other's labels while they are checked, and -race reports the writes.
func TestRootsConcurrentSolvers(t *testing.T) {
	const side = 128
	const n = side * side
	graphs := []*graph.Graph{
		graph.Grid2D(side, side),
		shuffledPath(n, 3),
		graph.ErdosRenyi(n, n/2, 5),
		graph.ErdosRenyi(n, 2*n, 7),
	}
	rounds := 8
	if testing.Short() {
		rounds = 3
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(graphs))
	for i, g := range graphs {
		want := testutil.Components(g)
		c := mustCompile(t, "none;uf;rem-cas;naive;split-one")
		reps := backends(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, backend := range []string{"csr", "compressed"} {
					got := c.Components(reps[backend])
					// Let another instance run between this run and its
					// check, which on one CPU would otherwise not happen.
					runtime.Gosched()
					for v, l := range got {
						if l != want[v] {
							errs <- fmt.Errorf("graph %d round %d %s: vertex %d labeled %d, want %d", i, r, backend, v, l, want[v])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRootsSolverContract pins what a run returns. Unsampled runs return
// the instance's result scratch: consecutive runs hand back one backing
// array, each run correct when it returns. Sampled runs return a fresh
// labeling that a later run leaves intact.
func TestRootsSolverContract(t *testing.T) {
	g1, g2 := graph.Grid2D(40, 50), graph.ErdosRenyi(2000, 1500, 9)
	want1, want2 := testutil.Components(g1), testutil.Components(g2)

	c := mustCompile(t, "none;uf;rem-cas;naive;split-one")
	a := c.Components(g1)
	testutil.CheckPartition(t, "unsampled/first", a, want1)
	b := c.Components(g2)
	testutil.CheckPartition(t, "unsampled/second", b, want2)
	if &a[0] != &b[0] {
		t.Fatal("consecutive unsampled runs returned different arrays")
	}

	s := mustCompile(t, "kout;uf;rem-cas;naive;split-one")
	first := s.Components(g1)
	kept := slices.Clone(first)
	testutil.CheckPartition(t, "sampled/first", first, want1)
	testutil.CheckPartition(t, "sampled/second", s.Components(g2), want2)
	testutil.CheckPartition(t, "sampled/third", s.Components(g1), want1)
	if !slices.Equal(first, kept) {
		t.Fatal("a later sampled run changed an earlier run's labels")
	}
}

// TestRootsNoArrayAllocation: once an unsampled instance has sized its
// scratch, its runs allocate no vertex-sized array. Several runs together
// must allocate less than one n-element uint32 array.
func TestRootsNoArrayAllocation(t *testing.T) {
	const runs = 5
	g := graph.Grid2D(256, 256)
	n := g.NumVertices()
	c := mustCompile(t, "none;uf;rem-cas;naive;split-one")
	c.Components(g)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		c.Components(g)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= uint64(4*n) {
		t.Fatalf("%d unsampled runs allocated %d bytes, want < %d (one %d-vertex array)", runs, d, 4*n, n)
	}
}
