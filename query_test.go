package connectit

// Tests for the composable query surface (DESIGN.md §12): live-forest
// queries on a concurrently driven Stream across all stream types that
// support capture, the capability gating at construction, the post-Close
// error contract, and the forest-backed Solver.Query on CSR and
// compressed graphs.

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"connectit/internal/testutil"
)

// queryTestEdges builds the shared edge stream and its normalized
// membership set.
func queryTestEdges(n int) ([]Edge, map[[2]uint32]bool) {
	edges := BarabasiAlbertEdges(n, 4, 7)
	inSet := make(map[[2]uint32]bool, len(edges))
	for _, e := range edges {
		u, v := e.U, e.V
		if v < u {
			u, v = v, u
		}
		inSet[[2]uint32{u, v}] = true
	}
	return edges, inSet
}

// checkPath validates one PathBetween answer against the final labeling
// and the inserted-edge set: the connected verdict matches the labels, and
// a returned path chains u to v through real inserted edges.
func checkPath(t *testing.T, labels []uint32, inSet map[[2]uint32]bool, u, v uint32, path []Edge, connected bool) {
	t.Helper()
	want := labels[u] == labels[v]
	if connected != want {
		t.Fatalf("PathBetween(%d,%d) connected = %v, labels say %v", u, v, connected, want)
	}
	if !connected {
		if path != nil {
			t.Fatalf("PathBetween(%d,%d): disconnected pair returned a path", u, v)
		}
		return
	}
	if u == v {
		if len(path) != 0 {
			t.Fatalf("PathBetween(%d,%d): self pair returned %d edges", u, v, len(path))
		}
		return
	}
	at := u
	for i, e := range path {
		if e.U != at {
			t.Fatalf("PathBetween(%d,%d): edge %d starts at %d, want %d", u, v, i, e.U, at)
		}
		a, b := e.U, e.V
		if b < a {
			a, b = b, a
		}
		if !inSet[[2]uint32{a, b}] {
			t.Fatalf("PathBetween(%d,%d): edge {%d,%d} was never inserted", u, v, e.U, e.V)
		}
		at = e.V
	}
	if at != v {
		t.Fatalf("PathBetween(%d,%d): path ends at %d", u, v, at)
	}
}

// TestStreamQueryLiveForest drives concurrent producers and concurrent
// queriers against one Stream per capture-capable stream type, then checks
// the quiesced engine against the stream's own labeling: component count
// and size parity, |forest| = n − #components with nothing dropped,
// histogram mass, and path validity over the inserted-edge set.
func TestStreamQueryLiveForest(t *testing.T) {
	const n = 1 << 11
	edges, inSet := queryTestEdges(n)

	for _, spec := range []string{
		"none;uf;rem-cas;naive;split-one", // Type (i): async witness log
		"none;sv",                         // Type (ii): round-barrier merge
		"none;lt;CRFA",                    // Type (ii): LT RootUp runner
	} {
		t.Run(spec, func(t *testing.T) {
			cfg, err := ParseConfig(spec)
			if err != nil {
				t.Fatal(err)
			}
			st, err := NewStream(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			q, err := st.Query()
			if err != nil {
				t.Fatal(err)
			}

			// Concurrent phase: sharded producers race point and aggregate
			// queries on the live engine. Mid-churn answers are unchecked
			// (they reflect some applied prefix); errors are not tolerated.
			const producers = 4
			var producing atomic.Int32
			producing.Store(producers)
			var wg sync.WaitGroup
			var qerr atomic.Value
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					defer producing.Add(-1)
					const chunk = 256
					for lo := p * chunk; lo < len(edges); lo += producers * chunk {
						hi := min(lo+chunk, len(edges))
						if err := st.UpdateBatch(edges[lo:hi]); err != nil {
							qerr.Store(err)
							return
						}
					}
				}(p)
			}
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w) + 31))
					for producing.Load() > 0 {
						u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
						if _, _, err := q.PathBetween(u, v); err != nil {
							qerr.Store(err)
							return
						}
						if _, err := q.ComponentSize(u); err != nil {
							qerr.Store(err)
							return
						}
						if _, err := q.ComponentHistogram(); err != nil {
							qerr.Store(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if err, _ := qerr.Load().(error); err != nil {
				t.Fatal(err)
			}

			// Quiesced checks against the stream's own labeling.
			st.Sync()
			labels := st.Labels()
			comps := 0
			sizes := make(map[uint32]int)
			for v, l := range labels {
				if l == uint32(v) {
					comps++
				}
				sizes[l]++
			}

			nc, err := q.NumComponents()
			if err != nil {
				t.Fatal(err)
			}
			if nc != comps {
				t.Fatalf("NumComponents = %d, stream labels say %d", nc, comps)
			}
			stats := q.Stats()
			if stats.Dropped != 0 {
				t.Fatalf("engine dropped %d forest edges, want 0", stats.Dropped)
			}
			if stats.ForestEdges != n-comps {
				t.Fatalf("index holds %d forest edges, want n - #components = %d", stats.ForestEdges, n-comps)
			}

			hist, err := q.ComponentHistogram()
			if err != nil {
				t.Fatal(err)
			}
			mass, bins := 0, 0
			for _, b := range hist {
				mass += b.Size * b.Count
				bins += b.Count
			}
			if mass != n || bins != comps {
				t.Fatalf("histogram covers %d vertices in %d components, want %d in %d", mass, bins, n, comps)
			}

			rng := rand.New(rand.NewSource(97))
			for i := 0; i < 64; i++ {
				v := uint32(rng.Intn(n))
				sz, err := q.ComponentSize(v)
				if err != nil {
					t.Fatal(err)
				}
				if sz != sizes[labels[v]] {
					t.Fatalf("ComponentSize(%d) = %d, labels say %d", v, sz, sizes[labels[v]])
				}
			}

			// Paths: random pairs plus inserted edges (guaranteed connected).
			for i := 0; i < 128; i++ {
				u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
				path, connected, err := q.PathBetween(u, v)
				if err != nil {
					t.Fatal(err)
				}
				checkPath(t, labels, inSet, u, v, path, connected)
			}
			for i := 0; i < 128; i++ {
				e := edges[rng.Intn(len(edges))]
				path, connected, err := q.PathBetween(e.U, e.V)
				if err != nil {
					t.Fatal(err)
				}
				if !connected {
					t.Fatalf("inserted edge (%d,%d) reported disconnected", e.U, e.V)
				}
				checkPath(t, labels, inSet, e.U, e.V, path, connected)
			}

			// Post-Close contract: every engine query returns ErrStreamClosed.
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := q.PathBetween(0, 1); !errors.Is(err, ErrStreamClosed) {
				t.Fatalf("PathBetween after Close: err = %v, want ErrStreamClosed", err)
			}
			if _, err := q.ComponentSize(0); !errors.Is(err, ErrStreamClosed) {
				t.Fatalf("ComponentSize after Close: err = %v, want ErrStreamClosed", err)
			}
			if _, err := q.ComponentHistogram(); !errors.Is(err, ErrStreamClosed) {
				t.Fatalf("ComponentHistogram after Close: err = %v, want ErrStreamClosed", err)
			}
			if _, err := q.NumComponents(); !errors.Is(err, ErrStreamClosed) {
				t.Fatalf("NumComponents after Close: err = %v, want ErrStreamClosed", err)
			}
			if _, _, err := q.LargestComponent(); !errors.Is(err, ErrStreamClosed) {
				t.Fatalf("LargestComponent after Close: err = %v, want ErrStreamClosed", err)
			}
			if _, err := q.Labels(); !errors.Is(err, ErrStreamClosed) {
				t.Fatalf("Labels after Close: err = %v, want ErrStreamClosed", err)
			}
			if _, err := q.Connected(0, 1); !errors.Is(err, ErrStreamClosed) {
				t.Fatalf("Connected after Close: err = %v, want ErrStreamClosed", err)
			}
			if _, err := q.Component(0); !errors.Is(err, ErrStreamClosed) {
				t.Fatalf("Component after Close: err = %v, want ErrStreamClosed", err)
			}
			if _, err := q.SpanningForest(); !errors.Is(err, ErrStreamClosed) {
				t.Fatalf("SpanningForest after Close: err = %v, want ErrStreamClosed", err)
			}
		})
	}
}

// TestStreamQueryCapabilityGating: forest-incapable algorithms fail at
// Query construction with ErrUnsupported — never mid-query.
func TestStreamQueryCapabilityGating(t *testing.T) {
	// Rem + SpliceAtomic (the Type (iii) phased algorithm) cannot carry
	// witnesses: cross-tree re-parenting breaks the forest property.
	cfg, err := ParseConfig("none;uf;rem-cas;naive;splice")
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Query(); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Query on splice stream: err = %v, want ErrUnsupported", err)
	}
}

// TestStreamForestFollowsStreamType: forest capture is decided by the stream
// type alone. Every Type i and Type ii stream answers Query with a spanning
// forest of what it ingested (|F| = n − #components, real edges, acyclic);
// every Type iii stream refuses Query with ErrUnsupported.
func TestStreamForestFollowsStreamType(t *testing.T) {
	const n, m = 300, 360
	rng := rand.New(rand.NewSource(29))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
	}
	g := BuildGraph(n, edges)
	for _, sa := range StreamingAlgorithms() {
		name := sa.Algorithm.Name()
		st, err := NewStream(n, Config{Algorithm: sa.Algorithm})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := st.UpdateBatch(edges); err != nil {
			t.Fatalf("%s: UpdateBatch: %v", name, err)
		}
		st.Sync()
		q, err := st.Query()
		if sa.Type == TypePhased {
			if !errors.Is(err, ErrUnsupported) {
				t.Errorf("%s (%v): Query err = %v, want ErrUnsupported", name, sa.Type, err)
			}
			st.Close()
			continue
		}
		if err != nil {
			t.Fatalf("%s (%v): Query: %v", name, sa.Type, err)
		}
		forest, err := q.SpanningForest()
		if err != nil {
			t.Fatalf("%s: SpanningForest: %v", name, err)
		}
		testutil.CheckSpanningForest(t, name, g, forest)
		st.Close()
	}
}

// TestSolverQueryStatic covers Solver.Query over a CSR graph: the engine is
// backed by Algorithm 2's spanning forest and answers paths.
func TestSolverQueryStatic(t *testing.T) {
	// Two components: a 4-cycle {0..3} and a path {4,5}.
	g := BuildGraph(6, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}, {U: 4, V: 5}})
	solver := MustCompile(DefaultConfig())
	q, err := solver.Query(g)
	if err != nil {
		t.Fatal(err)
	}
	if nc, _ := q.NumComponents(); nc != 2 {
		t.Fatalf("NumComponents = %d, want 2", nc)
	}
	if sz, _ := q.ComponentSize(1); sz != 4 {
		t.Fatalf("ComponentSize(1) = %d, want 4", sz)
	}
	if forest, _ := q.SpanningForest(); len(forest) != 4 {
		t.Fatalf("|forest| = %d, want 4", len(forest))
	}
	path, connected, err := q.PathBetween(0, 2)
	if err != nil || !connected {
		t.Fatalf("PathBetween(0,2) = (%v, %v), want a path", err, connected)
	}
	if len(path) == 0 || path[0].U != 0 || path[len(path)-1].V != 2 {
		t.Fatalf("PathBetween(0,2) path = %v, want 0 ... 2", path)
	}
	if _, connected, _ := q.PathBetween(0, 5); connected {
		t.Fatal("PathBetween(0,5) reported cross-component connection")
	}

	// A forest-incapable solver is rejected at construction.
	noForest := MustCompile(mustParseConfig(t, "none;uf;rem-cas;naive;splice"))
	if _, err := noForest.Query(g); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Query on splice solver: err = %v, want ErrUnsupported", err)
	}
}

func mustParseConfig(t *testing.T, spec string) Config {
	t.Helper()
	cfg, err := ParseConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestSolverQueryCompressed: querying a compressed graph yields a
// forest-backed engine, as on CSR — counting queries work, and PathBetween
// walks real graph edges of a spanning forest computed off the encoding.
func TestSolverQueryCompressed(t *testing.T) {
	g := NewGrid2D(8, 8)
	c := Compress(g)
	solver := MustCompile(DefaultConfig())
	q, err := solver.Query(c)
	if err != nil {
		t.Fatal(err)
	}
	if nc, _ := q.NumComponents(); nc != 1 {
		t.Fatalf("NumComponents = %d, want 1", nc)
	}
	if sz, _ := q.ComponentSize(0); sz != 64 {
		t.Fatalf("ComponentSize(0) = %d, want 64", sz)
	}
	inSet := make(map[[2]uint32]bool)
	for _, e := range g.Edges() {
		inSet[[2]uint32{min(e.U, e.V), max(e.U, e.V)}] = true
	}
	labels := testutil.Components(g)
	for _, pair := range [][2]uint32{{0, 63}, {7, 56}, {9, 9}} {
		path, connected, err := q.PathBetween(pair[0], pair[1])
		if err != nil {
			t.Fatalf("PathBetween(%d,%d): %v", pair[0], pair[1], err)
		}
		checkPath(t, labels, inSet, pair[0], pair[1], path, connected)
	}
	forest, err := q.SpanningForest()
	if err != nil {
		t.Fatal(err)
	}
	testutil.CheckSpanningForest(t, "compressed", g, forest)
}

// TestQueryLabelsParity: QueryLabels answers the counting queries exactly
// as a direct count over the same labeling does.
func TestQueryLabelsParity(t *testing.T) {
	g := NewWebLike(10, 3*(1<<10), 0.1, 11)
	solver := MustCompile(DefaultConfig())
	labels, err := solver.ComponentsOn(g)
	if err != nil {
		t.Fatal(err)
	}
	q := QueryLabels(labels)
	nc, err := q.NumComponents()
	if err != nil {
		t.Fatal(err)
	}
	if want := testutil.NumComponents(labels); nc != want {
		t.Fatalf("QueryLabels NumComponents = %d, direct count says %d", nc, want)
	}
	lbl, size, err := q.LargestComponent()
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(map[uint32]int)
	for _, l := range labels {
		sizes[l]++
	}
	if sizes[lbl] != size {
		t.Fatalf("QueryLabels LargestComponent = (%d, %d), direct count of that label is %d", lbl, size, sizes[lbl])
	}
	for l, c := range sizes {
		if c > size {
			t.Fatalf("QueryLabels LargestComponent = (%d, %d), but label %d has %d vertices", lbl, size, l, c)
		}
	}
	got, err := q.Labels()
	if err != nil {
		t.Fatal(err)
	}
	for v := range labels {
		if got[v] != labels[v] {
			t.Fatalf("QueryLabels round-trip label[%d] = %d, want %d", v, got[v], labels[v])
		}
	}
}
