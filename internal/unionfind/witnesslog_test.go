package unionfind

import (
	"errors"
	"sync"
	"testing"

	"connectit/internal/concurrent"
)

// TestWitnessLogSpanningForest drives concurrent Union traffic
// through every witness-capable variant with the log enabled and checks the
// streaming forest contract at quiescence: the log holds exactly
// n - #components edges, every one was inserted, and they form a forest
// spanning the same partition as the DSU.
func TestWitnessLogSpanningForest(t *testing.T) {
	const n = 1 << 10
	edges := make([][2]uint32, 0, 4*n)
	rng := uint64(99)
	for i := 0; i < 4*n; i++ {
		rng = hash64(rng)
		u := uint32(rng % n)
		rng = hash64(rng + 1)
		v := uint32(rng % n)
		if u == v {
			v = (v + 1) % n
		}
		edges = append(edges, [2]uint32{u, v})
	}
	inSet := make(map[[2]uint32]bool)
	for _, e := range edges {
		u, v := e[0], e[1]
		if v < u {
			u, v = v, u
		}
		inSet[[2]uint32{u, v}] = true
	}

	for _, v := range ForestVariants() {
		t.Run(v.Name(), func(t *testing.T) {
			d := MustNew(n, Options{Union: v.Union, Find: v.Find, Splice: v.Splice, WitnessLog: true})
			const workers = 4
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(edges); i += workers {
						d.Union(edges[i][0], edges[i][1])
					}
				}(w)
			}
			wg.Wait()

			comps := d.NumComponents()
			if got := d.WitnessLogLen(); got != n-comps {
				t.Fatalf("log length = %d, want n - #components = %d", got, n-comps)
			}
			buf := make([]uint64, n)
			cursor, k := d.WitnessLogRead(0, buf)
			if cursor != n-comps || k != n-comps {
				t.Fatalf("WitnessLogRead(0) = (%d, %d), want (%d, %d)", cursor, k, n-comps, n-comps)
			}
			check := MustNew(n, Options{Union: UnionAsync, Find: FindCompress})
			for _, w := range buf[:k] {
				eu, ev := concurrent.Unpack(w)
				a, b := eu, ev
				if b < a {
					a, b = b, a
				}
				if !inSet[[2]uint32{a, b}] {
					t.Fatalf("log edge {%d,%d} was never inserted", eu, ev)
				}
				if check.SameSet(eu, ev) {
					t.Fatalf("log edge {%d,%d} closes a cycle", eu, ev)
				}
				check.Union(eu, ev)
			}
			for u := uint32(1); u < n; u++ {
				if check.SameSet(u-1, u) != d.SameSet(u-1, u) {
					t.Fatalf("forest partition disagrees with DSU at (%d,%d)", u-1, u)
				}
			}
		})
	}
}

// TestWitnessLogRejectsSplice: SpliceAtomic re-parents across trees
// mid-union, so witness capture (either flavor) is an invalid combination.
func TestWitnessLogRejectsSplice(t *testing.T) {
	for _, u := range []UnionOption{UnionRemCAS, UnionRemLock} {
		if _, err := New(8, Options{Union: u, Find: FindNaive, Splice: SpliceAtomic, WitnessLog: true}); !errors.Is(err, ErrInvalidCombination) {
			t.Fatalf("%v + SpliceAtomic + WitnessLog: err = %v, want ErrInvalidCombination", u, err)
		}
	}
}

// TestWitnessLogIncrementalRead reads the log in small chunks interleaved
// with more unions: the cursor protocol must observe a strictly growing
// prefix and deliver every edge exactly once.
func TestWitnessLogIncrementalRead(t *testing.T) {
	const n = 512
	d := MustNew(n, Options{Union: UnionRemCAS, Find: FindNaive, Splice: SplitAtomicOne, WitnessLog: true})
	seen := 0
	cursor := 0
	var buf [7]uint64
	for v := uint32(1); v < n; v++ {
		d.Union(v-1, v)
		for {
			next, k := d.WitnessLogRead(cursor, buf[:])
			cursor = next
			seen += k
			if k < len(buf) {
				break
			}
		}
	}
	if seen != n-1 {
		t.Fatalf("incremental reads delivered %d edges, want %d", seen, n-1)
	}
	if cursor != n-1 {
		t.Fatalf("cursor = %d, want %d", cursor, n-1)
	}
}

// TestWitnessLogAppendAllocs: the log is preallocated (n slots always
// suffice), so the capture path performs zero heap allocations.
func TestWitnessLogAppendAllocs(t *testing.T) {
	const n = 1 << 16
	d := MustNew(n, Options{Union: UnionRemCAS, Find: FindNaive, Splice: SplitAtomicOne, WitnessLog: true})
	v := uint32(1)
	allocs := testing.AllocsPerRun(n/2, func() {
		d.Union(v-1, v)
		v++
	})
	if allocs != 0 {
		t.Fatalf("Union with log enabled allocates %.1f allocs/op, want 0", allocs)
	}
}
