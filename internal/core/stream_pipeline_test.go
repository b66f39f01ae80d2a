package core

import (
	"testing"

	"connectit/internal/graph"
	"connectit/internal/testutil"
)

// conn is Connected with the close error discarded: the tests below own
// their streams' lifecycles, so ErrStreamClosed cannot occur unless a test
// arranges it (close_test exercises the error path explicitly).
func conn(s *Stream, u, v uint32) bool {
	same, _ := s.Connected(u, v)
	return same
}

// mustStream opens a Stream for the given algorithm spec.
func mustStream(t *testing.T, n int, spec string, opt StreamOptions) *Stream {
	t.Helper()
	cfg, err := ParseConfig("none;" + spec)
	if err != nil {
		t.Fatalf("ParseConfig(%q): %v", spec, err)
	}
	c, err := Compile(cfg)
	if err != nil {
		t.Fatalf("Compile(%q): %v", spec, err)
	}
	s, err := c.NewStream(n, opt)
	if err != nil {
		t.Fatalf("NewStream(%q): %v", spec, err)
	}
	return s
}

// typeSpecs is one representative spec per scheduling discipline.
var typeSpecs = []struct {
	spec string
	want StreamType
}{
	{"uf;async;naive;split-one", TypeAsync},
	{"uf;rem-cas;split;split-one", TypeAsync},
	{"sv", TypeSynchronous},
	{"lt;CRFA", TypeSynchronous},
	{"uf;rem-cas;naive;splice", TypePhased},
	{"uf;rem-lock;naive;splice", TypePhased},
}

func TestStreamTypes(t *testing.T) {
	for _, tc := range typeSpecs {
		s := mustStream(t, 8, tc.spec, StreamOptions{})
		if s.Type() != tc.want {
			t.Errorf("%s: stream type %v, want %v", tc.spec, s.Type(), tc.want)
		}
	}
}

func TestStreamSequentialPath(t *testing.T) {
	// A path built one edge at a time, with a Sync+query after each epoch
	// boundary, on every discipline.
	const n = 1000
	for _, tc := range typeSpecs {
		t.Run(tc.spec, func(t *testing.T) {
			s := mustStream(t, n, tc.spec, StreamOptions{EpochSize: 64, Shards: 2})
			for v := uint32(0); v < n-1; v++ {
				s.Update(v, v+1)
			}
			s.Sync()
			if !conn(s, 0, n-1) {
				t.Fatalf("path endpoints not connected after Sync")
			}
			if conn(s, 0, n-1) != true || s.NumComponents() != 1 {
				t.Fatalf("want single component, got %d", s.NumComponents())
			}
			st := s.Stats()
			if st.Updates != n-1 {
				t.Fatalf("stats updates = %d, want %d", st.Updates, n-1)
			}
			if st.Applied+st.Filtered != st.Updates {
				t.Fatalf("applied %d + filtered %d != updates %d", st.Applied, st.Filtered, st.Updates)
			}
		})
	}
}

func TestStreamPrefilterDropsIntraComponent(t *testing.T) {
	// After a component is fully connected, re-sending its edges must be
	// filtered (Type i filters per call; buffered types filter at apply).
	const n = 256
	s := mustStream(t, n, "uf;async;naive;split-one", StreamOptions{})
	for v := uint32(0); v < n-1; v++ {
		s.Update(v, v+1)
	}
	before := s.Stats()
	for v := uint32(0); v < n-1; v++ {
		s.Update(v, v+1)
	}
	after := s.Stats()
	if got := after.Filtered - before.Filtered; got != n-1 {
		t.Fatalf("pre-filter dropped %d of %d redundant updates", got, n-1)
	}
	if after.Applied != before.Applied {
		t.Fatalf("redundant updates reached the hot path: applied %d -> %d", before.Applied, after.Applied)
	}

	// Buffered discipline: the whole redundant epoch is dropped at apply.
	sb := mustStream(t, n, "sv", StreamOptions{EpochSize: 32})
	for v := uint32(0); v < n-1; v++ {
		sb.Update(v, v+1)
	}
	sb.Sync()
	for v := uint32(0); v < n-1; v++ {
		sb.Update(v, v+1)
	}
	sb.Sync()
	st := sb.Stats()
	if st.Filtered < n-1 {
		t.Fatalf("buffered pre-filter dropped %d, want >= %d", st.Filtered, n-1)
	}
	if !conn(sb, 0, n-1) {
		t.Fatal("filtering broke connectivity")
	}
}

func TestStreamSelfLoopsAndRedundantEdges(t *testing.T) {
	s := mustStream(t, 16, "uf;async;naive;split-one", StreamOptions{})
	s.Update(3, 3)
	s.Update(0, 1)
	s.Update(1, 0) // redundant: the union finds one root and joins nothing
	st := s.Stats()
	if st.Filtered != 2 || st.Applied != 1 {
		t.Fatalf("want the self-loop and the redundant edge filtered, one applied: %+v", st)
	}
	if !conn(s, 0, 1) || conn(s, 0, 3) {
		t.Fatal("connectivity wrong")
	}
}

func TestStreamQueriesSeeOnlyAcceptedUpdates(t *testing.T) {
	for _, tc := range typeSpecs {
		s := mustStream(t, 64, tc.spec, StreamOptions{EpochSize: 8})
		if conn(s, 1, 2) {
			t.Fatalf("%s: empty stream reports connectivity", tc.spec)
		}
		s.Update(1, 2)
		s.Sync()
		if !conn(s, 1, 2) || conn(s, 1, 3) {
			t.Fatalf("%s: wrong connectivity after one update", tc.spec)
		}
	}
}

// TestSyncCoalescesResidualEpochs drives the pipeline deterministically:
// with epochs too large to self-seal, Sync seals one residual epoch per
// non-empty shard, and a single drain coalesces them into one apply round.
func TestSyncCoalescesResidualEpochs(t *testing.T) {
	const n = 1 << 12
	s := mustStream(t, n, "sv", StreamOptions{EpochSize: 1 << 16, Shards: 4})
	for i := 0; i < 2000; i++ {
		u := uint32(i) % (n - 1)
		s.Update(u, u+1)
	}
	s.Sync()
	st := s.Stats()
	if st.Epochs < 2 {
		t.Fatalf("expected residual epochs on >= 2 shards, got %d", st.Epochs)
	}
	if st.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1 (all residual epochs coalesced)", st.Rounds)
	}
	if st.Coalesced != st.Epochs-st.Rounds {
		t.Fatalf("coalesced = %d, want epochs %d - rounds %d", st.Coalesced, st.Epochs, st.Rounds)
	}
	if !conn(s, 0, 2000) {
		t.Fatal("path endpoints not connected after Sync")
	}
}

// TestRoundRespectsCoalesceBound fills every shard to one edge short of
// sealing, so that Sync seals more residual updates than one round may take
// (coalesceFactor epochs' worth) and has to split them over several rounds.
func TestRoundRespectsCoalesceBound(t *testing.T) {
	const (
		n      = 1 << 13
		shards = 32
		epoch  = 64
	)
	s := mustStream(t, n, "sv", StreamOptions{Shards: shards, EpochSize: epoch})
	// Distinct path edges, kept only while their shard has room, so no
	// shard seals before Sync.
	fill := map[*shard]int{}
	var accepted []graph.Edge
	for v := uint32(0); v < n-1 && len(accepted) < shards*(epoch-1); v++ {
		e := graph.Edge{U: v, V: v + 1}
		if sh := s.pick(e); fill[sh] < epoch-1 {
			fill[sh]++
			accepted = append(accepted, e)
			s.Update(e.U, e.V)
		}
	}
	if len(accepted) <= coalesceFactor*epoch {
		t.Fatalf("only %d residual updates, need more than the bound %d", len(accepted), coalesceFactor*epoch)
	}
	s.Sync()
	st := s.Stats()
	if st.Epochs != shards {
		t.Fatalf("epochs = %d, want one residual epoch per shard (%d)", st.Epochs, shards)
	}
	if st.Rounds < 2 {
		t.Fatalf("rounds = %d, want >= 2: %d residual updates exceed the bound %d", st.Rounds, len(accepted), coalesceFactor*epoch)
	}
	if st.Coalesced != st.Epochs-st.Rounds {
		t.Fatalf("coalesced = %d, want epochs %d - rounds %d", st.Coalesced, st.Epochs, st.Rounds)
	}
	want := testutil.Components(graph.Build(n, accepted))
	testutil.CheckPartition(t, "sv", s.Labels(), want)
}

func TestStreamingAlgorithmsEnumerates(t *testing.T) {
	seen := map[StreamType]int{}
	for _, sa := range StreamingAlgorithms() {
		seen[sa.Type]++
	}
	// 34 async UF variants + 2 Rem+SpliceAtomic phased + SV + 8 RootUp LT.
	if seen[TypeAsync] == 0 || seen[TypeSynchronous] == 0 || seen[TypePhased] == 0 {
		t.Fatalf("StreamingAlgorithms missing a discipline: %v", seen)
	}
}
