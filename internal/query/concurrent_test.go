package query_test

import (
	"sync"
	"testing"

	"connectit"
	"connectit/internal/graph"
	"connectit/internal/query"
	"connectit/internal/testutil"
)

// TestLabelledConcurrentBuilders: constructors run beside each other and
// beside a solve. Whoever loses the pool's TryLock runs its passes inline,
// so both the pooled and the inline build are exercised; every answer is
// checked.
func TestLabelledConcurrentBuilders(t *testing.T) {
	const builders, rounds = 4, 20
	var bwg sync.WaitGroup // the builders
	for b := 0; b < builders; b++ {
		bwg.Add(1)
		go func() {
			defer bwg.Done()
			// Each builder has its own labeling: k components of near-equal
			// size scattered by hash, k and n different per builder.
			n, k := 40_000+7919*b, uint64(3+b)
			labels := make([]uint32, n)
			sizes := make([]int, k)
			for i := range labels {
				l := uint32(i)
				if uint64(i) >= k {
					l = uint32(graph.Hash64(uint64(b)<<32|uint64(i)) % k)
				}
				labels[i] = l
				sizes[l]++
			}
			wantRoot := 0
			for r, s := range sizes {
				if s > sizes[wantRoot] {
					wantRoot = r
				}
			}
			for round := 0; round < rounds; round++ {
				e := query.NewLabelled(labels)
				if nc, err := e.NumComponents(); err != nil || nc != int(k) {
					t.Errorf("builder %d: NumComponents = (%d, %v), want %d", b, nc, err, k)
					return
				}
				root, size, err := e.LargestComponent()
				if err != nil || int(root) != wantRoot || size != sizes[wantRoot] {
					t.Errorf("builder %d: LargestComponent = (%d, %d, %v), want (%d, %d)", b, root, size, err, wantRoot, sizes[wantRoot])
					return
				}
				for r, s := range sizes {
					if got, err := e.ComponentSize(uint32(r)); err != nil || got != s {
						t.Errorf("builder %d: ComponentSize(%d) = (%d, %v), want %d", b, r, got, err, s)
						return
					}
				}
			}
		}()
	}
	defer bwg.Wait() // a failing solve must not end the test under the builders
	built := make(chan struct{})
	go func() { bwg.Wait(); close(built) }()

	// The solves run here, on the test's goroutine (CheckPartition may call
	// t.Fatalf), and keep the pool contended until the builders finish.
	g := testutil.Panel()["rmat"]
	want := testutil.Components(g)
	solver := connectit.MustCompile(connectit.DefaultConfig())
	for solving := true; solving; {
		select {
		case <-built:
			solving = false
		default:
		}
		labels, err := solver.ComponentsOn(g)
		if err != nil {
			t.Fatal(err)
		}
		testutil.CheckPartition(t, "solve beside builders", labels, want)
	}
}
