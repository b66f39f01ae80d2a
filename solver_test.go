package connectit

// Tests for the compiled Solver: repeated runs must stay correct while
// scratch buffers are reused (including across graphs of different sizes),
// capabilities must agree with what the methods actually do for every
// registry algorithm, and the registry-derived capability counts must match
// the paper's inventory.

import (
	"testing"

	"connectit/internal/testutil"
)

func TestSolverRepeatedRunsReuseScratch(t *testing.T) {
	g1 := NewRMAT(10, 5000, 3)
	g2 := NewGrid2D(30, 30) // different vertex count: exercises buffer resize
	truth1 := testutil.Components(g1)
	truth2 := testutil.Components(g2)
	for _, spec := range []string{
		"none;uf;rem-cas;naive;split-one",
		"none;uf;hooks;compress",
		"kout;uf;jtb;two-try",
		"bfs;sv",
		"ldd;lt;CRFA",
		"none;lp",
		"none;stergiou",
	} {
		cfg, err := ParseConfig(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		cfg.Seed = 7
		s := MustCompile(cfg)
		for i := 0; i < 3; i++ {
			testutil.CheckPartition(t, spec+"/g1", s.Components(g1), truth1)
			testutil.CheckPartition(t, spec+"/g2", s.Components(g2), truth2)
		}
	}
}

func TestSolverForestAndComponentsInterleave(t *testing.T) {
	s := MustCompile(DefaultConfig())
	g := NewGrid2D(20, 20)
	for i := 0; i < 3; i++ {
		forest, err := s.SpanningForest(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(forest) != g.NumVertices()-1 {
			t.Fatalf("run %d: forest edges = %d, want %d", i, len(forest), g.NumVertices()-1)
		}
		testutil.CheckSpanningForest(t, "grid", g, forest)
		if got := testutil.NumComponents(s.Components(g)); got != 1 {
			t.Fatalf("run %d: components = %d, want 1", i, got)
		}
	}
}

// TestSolverCapabilitiesMatchBehavior verifies the registry-derived
// capability flags against the methods' actual behavior for every
// algorithm in the framework.
func TestSolverCapabilitiesMatchBehavior(t *testing.T) {
	g := NewGrid2D(8, 8)
	nForest, nStream := 0, 0
	for _, a := range Algorithms() {
		s := MustCompile(Config{Algorithm: a})
		caps := s.Capabilities()
		if _, err := s.SpanningForest(g); (err == nil) != caps.SpanningForest {
			t.Errorf("%s: SpanningForest err=%v but capability=%v", a.Name(), err, caps.SpanningForest)
		}
		if st, err := s.Stream(16); (err == nil) != caps.Streaming {
			t.Errorf("%s: Stream err=%v but capability=%v", a.Name(), err, caps.Streaming)
		} else if err == nil && st.Type() != caps.StreamType {
			t.Errorf("%s: stream type %v != capability %v", a.Name(), st.Type(), caps.StreamType)
		}
		if caps.SpanningForest {
			nForest++
		}
		if caps.Streaming {
			nStream++
		}
	}
	// 30 union-find (36 minus the six Rem+SpliceAtomic combinations) + SV +
	// the 6 RootUp Liu-Tarjan variants support forest; all 36 union-find +
	// SV + the 6 RootUp LT variants support streaming.
	if nForest != 37 {
		t.Errorf("forest-capable algorithms = %d, want 37", nForest)
	}
	if nStream != 43 {
		t.Errorf("stream-capable algorithms = %d, want 43", nStream)
	}
}

func TestSolverNameRoundTrips(t *testing.T) {
	s := MustCompile(DefaultConfig())
	cfg, err := ParseConfig(s.Name())
	if err != nil {
		t.Fatalf("ParseConfig(%q): %v", s.Name(), err)
	}
	if cfg.Sampling != s.Config().Sampling || cfg.Algorithm != s.Config().Algorithm {
		t.Fatalf("round-trip of %q = %+v", s.Name(), cfg)
	}
}

func TestSolverEmptyGraph(t *testing.T) {
	s := MustCompile(DefaultConfig())
	g := BuildGraph(0, nil)
	if labels := s.Components(g); labels != nil {
		t.Fatalf("empty graph labels = %v", labels)
	}
	forest, err := s.SpanningForest(g)
	if err != nil || len(forest) != 0 {
		t.Fatalf("empty graph forest = %v, %v", forest, err)
	}
}
