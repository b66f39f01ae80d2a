package query

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"connectit/internal/graph"
)

// labelShapes are partitions in star form (labels[labels[v]] == labels[v])
// chosen for how they load NewLabelled's size accumulation: runs, evictions
// from the pending table, roots shared between chunks, and ties.
var labelShapes = []struct {
	name string
	gen  func(n int, seed uint64) []uint32
}{
	{"all-singletons", func(n int, _ uint64) []uint32 {
		return fill(n, func(i uint32) uint32 { return i })
	}},
	{"one-giant", func(n int, _ uint64) []uint32 {
		return fill(n, func(uint32) uint32 { return 0 })
	}},
	{"giant+fringe", giantFringe},
	{"interleaved-2", func(n int, _ uint64) []uint32 {
		return fill(n, func(i uint32) uint32 { return i % 2 })
	}},
	{"interleaved-3", func(n int, _ uint64) []uint32 {
		return fill(n, func(i uint32) uint32 { return i % 3 })
	}},
	{"10k-medium", func(n int, seed uint64) []uint32 {
		k := uint64(min(n, 10_000))
		return fill(n, func(i uint32) uint32 {
			if uint64(i) < k {
				return i
			}
			return uint32(graph.Hash64(seed+uint64(i)) % k)
		})
	}},
	{"largest-at-high-root", func(n int, seed uint64) []uint32 {
		top := uint32(n - 1)
		return fill(n, func(i uint32) uint32 {
			if i == top || graph.Hash64(seed+uint64(i))%100 < 60 {
				return top
			}
			return i
		})
	}},
	{"tie-blocks", tieBlocks},
	{"tie-scattered", tieScattered},
}

// tieBlocks is two components of exactly n/2 vertices in consecutive
// blocks, each rooted at its block's last vertex, so at large n the tied
// roots sit in different chunks; an odd n leaves one singleton.
func tieBlocks(n int, _ uint64) []uint32 {
	h := uint32(n / 2)
	return fill(n, func(i uint32) uint32 {
		switch {
		case i < h:
			return h - 1
		case i < 2*h:
			return 2*h - 1
		}
		return i
	})
}

// tieScattered is three components of exactly n/4 vertices scattered by
// hash, rooted at n/4, n/2 and 3n/4: the tie must go to n/4 whichever chunk
// ends first.
func tieScattered(n int, seed uint64) []uint32 {
	roots := [3]uint32{uint32(n / 4), uint32(n / 2), uint32(3 * n / 4)}
	if n < 8 {
		roots = [3]uint32{0, 0, 0}
	}
	var members [3]int
	return fill(n, func(i uint32) uint32 {
		k := graph.Hash64(seed+uint64(i)) % 3
		if i == roots[0] || i == roots[1] || i == roots[2] || members[k] == n/4-1 {
			return i
		}
		members[k]++
		return roots[k]
	})
}

// giantFringe is the RMAT shape: 57% of the vertices in one component
// rooted at 0, the rest singletons scattered among them.
func giantFringe(n int, seed uint64) []uint32 {
	return fill(n, func(i uint32) uint32 {
		if graph.Hash64(seed+uint64(i))%100 < 57 {
			return 0
		}
		return i
	})
}

func fill(n int, label func(i uint32) uint32) []uint32 {
	labels := make([]uint32, n)
	for i := range labels {
		labels[i] = label(uint32(i))
	}
	return labels
}

// countingOracle is the map-based count NewLabelled is checked against.
type countingOracle struct {
	sizes   map[uint32]int
	largest uint32
	hist    Histogram
}

func newCountingOracle(t *testing.T, labels []uint32) countingOracle {
	t.Helper()
	o := countingOracle{sizes: map[uint32]int{}}
	for v, l := range labels {
		if labels[l] != l {
			t.Fatalf("generator bug: labels[%d] = %d is not a root", v, l)
		}
		o.sizes[l]++
	}
	bySize := map[int]int{}
	for l, s := range o.sizes {
		bySize[s]++
		if best := o.sizes[o.largest]; s > best || s == best && l < o.largest {
			o.largest = l
		}
	}
	for s, c := range bySize {
		o.hist = append(o.hist, Bin{Size: s, Count: c})
	}
	slices.SortFunc(o.hist, func(a, b Bin) int { return a.Size - b.Size })
	return o
}

// checkEngine compares every counting answer of e, built from labels, with
// the oracle's.
func checkEngine(t *testing.T, e *Engine, labels []uint32, o countingOracle) {
	t.Helper()
	n := len(labels)
	if nc, err := e.NumComponents(); err != nil || nc != len(o.sizes) {
		t.Fatalf("NumComponents = (%d, %v), want %d", nc, err, len(o.sizes))
	}
	root, size, err := e.LargestComponent()
	if err != nil || root != o.largest || size != o.sizes[o.largest] {
		t.Fatalf("LargestComponent = (%d, %d, %v), want (%d, %d)", root, size, err, o.largest, o.sizes[o.largest])
	}
	hist, err := e.ComponentHistogram()
	if err != nil || !slices.Equal(hist, o.hist) {
		t.Fatalf("ComponentHistogram = (%v, %v), want %v", hist, err, o.hist)
	}
	got, err := e.Labels()
	if err != nil || !slices.Equal(got, labels) {
		t.Fatalf("Labels differ from the input (err %v)", err)
	}
	if n == 0 {
		return
	}
	step := n/509 + 1
	for v := 0; v < n; v += step {
		u := uint32(graph.Hash64(uint64(v)) % uint64(n))
		for _, x := range []uint32{uint32(v), uint32(n - 1 - v)} {
			if sz, err := e.ComponentSize(x); err != nil || sz != o.sizes[labels[x]] {
				t.Fatalf("ComponentSize(%d) = (%d, %v), want %d", x, sz, err, o.sizes[labels[x]])
			}
			if c, err := e.Component(x); err != nil || c != labels[x] {
				t.Fatalf("Component(%d) = (%d, %v), want %d", x, c, err, labels[x])
			}
			if conn, err := e.Connected(x, u); err != nil || conn != (labels[x] == labels[u]) {
				t.Fatalf("Connected(%d, %d) = (%v, %v), want %v", x, u, conn, err, labels[x] == labels[u])
			}
		}
	}
}

// TestLabelledMatchesCountingOracle checks every counting answer of a
// label-backed engine against a map-based count, over the shapes above, at
// sizes around the chunk boundary, with one worker and with four.
func TestLabelledMatchesCountingOracle(t *testing.T) {
	big := 1_000_000
	if testing.Short() {
		big = 100_000
	}
	sizes := []int{0, 1, labelGrain - 1, labelGrain, labelGrain + 1, 3*labelGrain + 7, big}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sh := range labelShapes {
		for si, n := range sizes {
			labels := sh.gen(n, uint64(31*si+7))
			o := newCountingOracle(t, labels)
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				t.Run(fmt.Sprintf("%s/n=%d/procs=%d", sh.name, n, procs), func(t *testing.T) {
					checkEngine(t, NewLabelled(labels), labels, o)
				})
			}
		}
	}
}

// TestLabelledTieGoesToSmallestRoot pins the tie shapes' expectation
// itself, so the oracle and the engine cannot agree on a wrong rule.
func TestLabelledTieGoesToSmallestRoot(t *testing.T) {
	const n = 6 * labelGrain
	for _, tc := range []struct {
		name   string
		labels []uint32
		root   uint32
		size   int
	}{
		{"tie-blocks", tieBlocks(n, 5), n/2 - 1, n / 2},
		{"tie-scattered", tieScattered(n, 5), n / 4, n / 4},
		{"interleaved-2", fill(n, func(i uint32) uint32 { return i % 2 }), 0, n / 2},
	} {
		root, size, err := NewLabelled(tc.labels).LargestComponent()
		if err != nil || root != tc.root || size != tc.size {
			t.Errorf("%s: LargestComponent = (%d, %d, %v), want (%d, %d)", tc.name, root, size, err, tc.root, tc.size)
		}
	}
}

// TestLabelledOwnsItsCopy: unsampled solves hand out Solver scratch, so the
// engine must not alias the caller's slice.
func TestLabelledOwnsItsCopy(t *testing.T) {
	labels := giantFringe(3*labelGrain+7, 11)
	o := newCountingOracle(t, labels)
	e := NewLabelled(labels)
	want := slices.Clone(labels)
	for i := range labels {
		labels[i] = 0
	}
	got, err := e.Labels()
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("Labels changed after the caller overwrote its slice (err %v)", err)
	}
	if nc, _ := e.NumComponents(); nc != len(o.sizes) {
		t.Fatalf("NumComponents = %d, want %d", nc, len(o.sizes))
	}
	if sz, _ := e.ComponentSize(0); sz != o.sizes[0] {
		t.Fatalf("ComponentSize(0) = %d, want %d", sz, o.sizes[0])
	}
}

// TestLabelledForestFieldsUnused: a label-backed engine allocates no forest
// adjacency and no BFS scratch, and no public method needs them.
func TestLabelledForestFieldsUnused(t *testing.T) {
	labels := giantFringe(2*labelGrain+5, 3)
	e := NewLabelled(labels)
	assertNil := func(when string) {
		t.Helper()
		if e.head != nil || e.nextHE != nil || e.stamp != nil || e.via != nil ||
			e.queue != nil || e.forest != nil || e.pull != nil {
			t.Fatalf("%s: a forest or BFS array is allocated on a label-backed engine", when)
		}
	}
	assertNil("after construction")
	if len(e.parent) != len(labels) {
		t.Fatalf("len(parent) = %d, want %d", len(e.parent), len(labels))
	}
	// Sizes are built by the first size query, not before.
	if _, err := e.NumComponents(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Connected(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Component(3); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Labels(); err != nil {
		t.Fatal(err)
	}
	if e.size != nil {
		t.Fatalf("size is allocated (len %d) before any size query", len(e.size))
	}
	if _, err := e.ComponentSize(0); err != nil {
		t.Fatal(err)
	}
	if len(e.size) != len(labels) {
		t.Fatalf("after the first size query len(size) = %d, want %d", len(e.size), len(labels))
	}

	if _, _, err := e.PathBetween(1, 2); !errors.Is(err, ErrNoForest) {
		t.Fatalf("PathBetween: err = %v, want ErrNoForest", err)
	}
	if _, err := e.SpanningForest(); !errors.Is(err, ErrNoForest) {
		t.Fatalf("SpanningForest: err = %v, want ErrNoForest", err)
	}
	if err := e.Refresh(); err != nil {
		t.Fatal(err)
	}
	o := newCountingOracle(t, labels)
	if s := e.Stats(); s.ForestEdges != 0 || s.Dropped != 0 || s.Components != len(o.sizes) {
		t.Fatalf("Stats = %+v, want 0 edges, 0 dropped, %d components", s, len(o.sizes))
	}
	if e.NumVertices() != len(labels) {
		t.Fatalf("NumVertices = %d, want %d", e.NumVertices(), len(labels))
	}
	checkEngine(t, e, labels, o)
	checkEngine(t, e, labels, o) // again: the histogram now comes from its cache
	assertNil("after every public method")
}

// TestLabelledRejectsOutOfRangeLabel: the range check runs inside the
// parallel pass, where an index panic would kill the process from a pool
// worker; it must surface as a named panic on the caller's goroutine and
// leave the pool usable.
func TestLabelledRejectsOutOfRangeLabel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 5*labelGrain + 3
	for _, v := range []int{0, labelGrain, 3*labelGrain + 17, n - 1} {
		for _, l := range []uint32{n, n + 1, 1 << 31, ^uint32(0)} {
			labels := giantFringe(n, 9)
			labels[v] = l
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				NewLabelled(labels)
				return
			}()
			want := fmt.Sprintf("labels[%d] = %d is out of range [0, %d)", v, l, n)
			if !strings.Contains(msg, want) {
				t.Fatalf("bad label %d at vertex %d: recovered %q, want it to contain %q", l, v, msg, want)
			}
		}
	}
	labels := giantFringe(n, 9)
	checkEngine(t, NewLabelled(labels), labels, newCountingOracle(t, labels))
}

// labelledOrPanic builds a label-backed engine, or returns what
// NewLabelled panicked with.
func labelledOrPanic(labels []uint32) (e *Engine, msg string) {
	defer func() {
		if r := recover(); r != nil {
			e, msg = nil, fmt.Sprint(r)
		}
	}()
	return NewLabelled(labels), ""
}

// starMessage is the panic NewLabelled raises for vertex v of a labeling
// that is in range but not in star form.
func starMessage(labels []uint32, v int) string {
	l := labels[v]
	return fmt.Sprintf("labels[%d] = %d is not a root (labels[%d] = %d)", v, l, l, labels[l])
}

// TestLabelledRejectsNonStarLabeling: a label that is not a root would make
// find spin on a cycle or count a vertex into the wrong component, so the
// construction pass rejects it, naming the lowest bad vertex; an
// out-of-range label anywhere takes precedence.
func TestLabelledRejectsNonStarLabeling(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 5*labelGrain + 3
	chain := func(vs ...int) []uint32 {
		labels := giantFringe(n, 9)
		for _, v := range vs {
			labels[v] = 1 // 1 is a non-root of the giant (labels[1] = 0 or 1)
		}
		labels[1] = 0
		return labels
	}
	big := chain(4*labelGrain+1, labelGrain+5, n-1)
	both := chain(7, 2*labelGrain)
	both[3*labelGrain+1], both[4*labelGrain] = n+3, n
	for _, tc := range []struct {
		name   string
		labels []uint32
		want   string
	}{
		{"cycle", []uint32{1, 0, 2}, "labels[0] = 1 is not a root (labels[1] = 0)"},
		{"chain", []uint32{0, 0, 1}, "labels[2] = 1 is not a root (labels[1] = 0)"},
		{"self-then-chain", []uint32{0, 2, 3, 3}, "labels[1] = 2 is not a root (labels[2] = 3)"},
		{"lowest-of-many-chunks", big, starMessage(big, labelGrain+5)},
		{"range-wins", both, fmt.Sprintf("labels[%d] = %d is out of range [0, %d)", 3*labelGrain+1, n+3, n)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// find spins forever on a cycle, so an engine that accepts one
			// is queried under a deadline.
			done := make(chan string, 1)
			go func() {
				e, msg := labelledOrPanic(tc.labels)
				if e != nil {
					nc, _ := e.NumComponents()
					c, _ := e.Connected(0, 2)
					sz, _ := e.ComponentSize(2)
					msg = fmt.Sprintf("no panic: NumComponents %d, Connected(0, 2) %v, ComponentSize(2) %d", nc, c, sz)
				}
				done <- msg
			}()
			select {
			case msg := <-done:
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("got %q, want a panic containing %q", msg, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("NewLabelled accepted the labeling and a query did not return in 10s")
			}
		})
	}
	labels := giantFringe(n, 9)
	checkEngine(t, NewLabelled(labels), labels, newCountingOracle(t, labels))
}

// TestLabelledLazySizesConcurrent: the first size queries on a fresh engine
// race to build the sizes; each must see them complete.
func TestLabelledLazySizesConcurrent(t *testing.T) {
	const goroutines = 8
	for _, sh := range labelShapes {
		for _, n := range []int{1, 3*labelGrain + 7} {
			labels := sh.gen(n, 17)
			o := newCountingOracle(t, labels)
			e := NewLabelled(labels)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					// Each goroutine asks in a different order, so every
					// method gets to be the one that builds.
					for k := 0; k < 3; k++ {
						switch (g + k) % 3 {
						case 0:
							v := uint32(graph.Hash64(uint64(g)) % uint64(n))
							if sz, err := e.ComponentSize(v); err != nil || sz != o.sizes[labels[v]] {
								t.Errorf("%s/n=%d: ComponentSize(%d) = (%d, %v), want %d", sh.name, n, v, sz, err, o.sizes[labels[v]])
							}
						case 1:
							if root, size, err := e.LargestComponent(); err != nil || root != o.largest || size != o.sizes[o.largest] {
								t.Errorf("%s/n=%d: LargestComponent = (%d, %d, %v), want (%d, %d)", sh.name, n, root, size, err, o.largest, o.sizes[o.largest])
							}
						case 2:
							if hist, err := e.ComponentHistogram(); err != nil || !slices.Equal(hist, o.hist) {
								t.Errorf("%s/n=%d: ComponentHistogram = (%v, %v), want %v", sh.name, n, hist, err, o.hist)
							}
						}
					}
				}()
			}
			close(start)
			wg.Wait()
		}
	}
}
