package connectit

import (
	"errors"
	"strings"
	"testing"

	"connectit/internal/testutil"
)

func TestQuickStartFlow(t *testing.T) {
	g := BuildGraph(5, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}})
	labels, err := Connectivity(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != labels[2] || labels[3] != labels[4] || labels[0] == labels[3] {
		t.Fatalf("labels = %v", labels)
	}
	q := QueryLabels(labels)
	if n, err := q.NumComponents(); err != nil || n != 2 {
		t.Fatalf("components = %d, %v, want 2", n, err)
	}
	l, c, err := q.LargestComponent()
	if err != nil || c != 3 || l != labels[0] {
		t.Fatalf("largest = (%d,%d), %v", l, c, err)
	}
}

func TestPublicAlgorithmEnumeration(t *testing.T) {
	algos := Algorithms()
	if len(algos) != 55 {
		t.Fatalf("algorithms = %d, want 55 (36 UF + SV + 16 LT + Stergiou + LP)", len(algos))
	}
	names := map[string]bool{}
	for _, a := range algos {
		if names[a.Name()] {
			t.Fatalf("duplicate algorithm name %s", a.Name())
		}
		names[a.Name()] = true
	}
}

func TestPublicAPIAllAlgorithmsOnRMAT(t *testing.T) {
	g := NewRMAT(10, 6000, 3)
	want := testutil.Components(g)
	for _, a := range Algorithms() {
		cfg := Config{Sampling: BFSSampling, Algorithm: a, Seed: 1}
		labels, err := Connectivity(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		testutil.CheckPartition(t, a.Name(), labels, want)
	}
}

func TestLiuTarjanLookup(t *testing.T) {
	if _, err := LiuTarjanAlgorithm("CRFA"); err != nil {
		t.Fatalf("CRFA should exist: %v", err)
	}
	_, err := LiuTarjanAlgorithm("XYZ")
	if err == nil {
		t.Fatal("XYZ should not exist")
	}
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("unknown code error = %v, want ErrUnsupported", err)
	}
	if !strings.Contains(err.Error(), "XYZ") {
		t.Fatalf("error %q does not name the bad code", err)
	}
	// Degenerate codes must keep the documented ErrUnsupported contract.
	for _, code := range []string{"", "   ", "CRFA;PRF"} {
		if _, err := LiuTarjanAlgorithm(code); !errors.Is(err, ErrUnsupported) {
			t.Fatalf("LiuTarjanAlgorithm(%q) = %v, want ErrUnsupported", code, err)
		}
	}
}

func TestSpanningForestPublic(t *testing.T) {
	g := NewGrid2D(20, 20)
	forest, err := SpanningForest(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(forest) != g.NumVertices()-1 {
		t.Fatalf("forest edges = %d, want %d", len(forest), g.NumVertices()-1)
	}
	testutil.CheckSpanningForest(t, "grid", g, forest)
}

func TestSpanningForestUnsupportedSurfaces(t *testing.T) {
	g := NewGrid2D(4, 4)
	cfg := Config{Algorithm: LabelPropagationAlgorithm()}
	if _, err := SpanningForest(g, cfg); err == nil {
		t.Fatal("expected error for label propagation spanning forest")
	}
}

// TestIncrementalPublic drives the batch-incremental call through the
// public surface.
func TestIncrementalPublic(t *testing.T) {
	st, err := NewStream(6, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.ProcessBatch(
		[]Edge{{U: 0, V: 1}, {U: 2, V: 3}},
		[][2]uint32{{4, 5}},
	)
	if err != nil || res[0] {
		t.Fatalf("ProcessBatch = %v, %v; 4 and 5 should not be connected", res, err)
	}
	conn := func(u, v uint32) bool { c, _ := st.Connected(u, v); return c }
	if !conn(0, 1) || conn(0, 2) {
		t.Fatal("post-batch connectivity wrong")
	}
	st.ProcessBatch([]Edge{{U: 1, V: 2}}, nil)
	if !conn(0, 3) {
		t.Fatal("0 and 3 should be connected after second batch")
	}
	if st.NumComponents() != 3 {
		t.Fatalf("components = %d, want 3 ({0..3}, {4}, {5})", st.NumComponents())
	}
	st.Close()
	if _, err := st.ProcessBatch([]Edge{{U: 4, V: 5}}, nil); err != ErrStreamClosed {
		t.Fatalf("ProcessBatch after Close: err = %v, want ErrStreamClosed", err)
	}
}

func TestGeneratorsExported(t *testing.T) {
	if g := NewBarabasiAlbert(500, 3, 1); g.NumVertices() != 500 {
		t.Fatal("BA generator")
	}
	if g := NewErdosRenyi(100, 200, 1); g.NumVertices() != 100 {
		t.Fatal("ER generator")
	}
	if g := NewWebLike(8, 500, 0.1, 1); g.NumVertices() != 256 {
		t.Fatal("WebLike generator")
	}
	if len(RMATEdges(8, 100, 1)) != 100 {
		t.Fatal("RMAT edges")
	}
	if len(BarabasiAlbertEdges(100, 2, 1)) == 0 {
		t.Fatal("BA edges")
	}
}
