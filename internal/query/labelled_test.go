package query

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

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
	if len(e.parent) != len(labels) || len(e.size) != len(labels) {
		t.Fatalf("parent/size lengths = %d/%d, want %d", len(e.parent), len(e.size), len(labels))
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
