package core

import (
	"slices"
	"testing"
	"testing/quick"

	"connectit/internal/graph"
	"connectit/internal/liutarjan"
	"connectit/internal/testutil"
	"connectit/internal/unionfind"
)

// newStream opens a stream with the default options for alg.
func newStream(n int, alg Algorithm) (*Stream, error) {
	c, err := Compile(Config{Algorithm: alg})
	if err != nil {
		return nil, err
	}
	return c.NewStream(n, StreamOptions{})
}

// processBatch is ProcessBatch on a stream the test owns, which cannot be
// closed under it.
func processBatch(t *testing.T, s *Stream, updates []graph.Edge, queries [][2]uint32) []bool {
	t.Helper()
	res, err := s.ProcessBatch(updates, queries)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func splitBatches(edges []graph.Edge, batch int) [][]graph.Edge {
	var out [][]graph.Edge
	for i := 0; i < len(edges); i += batch {
		hi := i + batch
		if hi > len(edges) {
			hi = len(edges)
		}
		out = append(out, edges[i:hi])
	}
	return out
}

// TestStreamingMatrix ingests a graph in ProcessBatch calls through every
// streaming algorithm and checks the final components against ground
// truth, plus mid-stream query consistency.
func TestStreamingMatrix(t *testing.T) {
	g := graph.RMAT(10, 4000, 0.57, 0.19, 0.19, 13)
	edges := g.Edges()
	want := testutil.Components(g)
	for _, sa := range StreamingAlgorithms() {
		alg := sa.Algorithm
		t.Run(alg.Name(), func(t *testing.T) {
			t.Parallel()
			s, err := newStream(g.NumVertices(), alg)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range splitBatches(edges, 500) {
				// Queries re-ask the batch's own edges: must all be true.
				queries := make([][2]uint32, len(b))
				for i, e := range b {
					queries[i] = [2]uint32{e.U, e.V}
				}
				res := processBatch(t, s, b, queries)
				if s.Type() != TypeAsync {
					// For phase-separated/synchronous types the queries run
					// after all updates, so every queried edge is connected.
					for i, r := range res {
						if !r {
							t.Fatalf("batch query %d: edge (%d,%d) not connected after insertion",
								i, b[i].U, b[i].V)
						}
					}
				}
			}
			testutil.CheckPartition(t, alg.Name(), s.Labels(), want)
			if st := s.Stats(); st.Updates != uint64(len(edges)) || st.Filtered+st.Applied != st.Updates {
				t.Fatalf("Stats %+v after %d updates", st, len(edges))
			}
		})
	}
}

func TestStreamingTypesClassified(t *testing.T) {
	cases := []struct {
		alg  Algorithm
		want StreamType
	}{
		{Algorithm{Kind: FinishUnionFind, UF: unionfind.Variant{Union: unionfind.UnionAsync}}, TypeAsync},
		{Algorithm{Kind: FinishUnionFind, UF: unionfind.Variant{Union: unionfind.UnionRemCAS, Splice: unionfind.SplitAtomicOne}}, TypeAsync},
		{Algorithm{Kind: FinishUnionFind, UF: unionfind.Variant{Union: unionfind.UnionRemCAS, Splice: unionfind.SpliceAtomic}}, TypePhased},
		{Algorithm{Kind: FinishUnionFind, UF: unionfind.Variant{Union: unionfind.UnionRemLock, Splice: unionfind.SpliceAtomic}}, TypePhased},
		{Algorithm{Kind: FinishShiloachVishkin}, TypeSynchronous},
	}
	for _, c := range cases {
		s, err := newStream(10, c.alg)
		if err != nil {
			t.Fatal(err)
		}
		if s.Type() != c.want {
			t.Fatalf("%s: type = %v, want %v", c.alg.Name(), s.Type(), c.want)
		}
	}
}

func TestStreamingRejectsUnsupported(t *testing.T) {
	unsupported := []Algorithm{
		{Kind: FinishStergiou},
		{Kind: FinishLabelProp},
		{Kind: FinishLiuTarjan, LT: liutarjan.Variant{Connect: liutarjan.ParentConnect}},
	}
	for _, alg := range unsupported {
		if _, err := newStream(10, alg); err == nil {
			t.Fatalf("%s: expected ErrUnsupported", alg.Name())
		}
	}
}

func TestStreamingQueriesBeforeAnyEdges(t *testing.T) {
	for _, sa := range StreamingAlgorithms() {
		s, err := newStream(5, sa.Algorithm)
		if err != nil {
			t.Fatal(err)
		}
		res := processBatch(t, s, nil, [][2]uint32{{0, 1}, {2, 2}})
		if res[0] || !res[1] {
			t.Fatalf("%s: empty-graph queries = %v, want [false true]", sa.Algorithm.Name(), res)
		}
		if s.NumComponents() != 5 {
			t.Fatalf("%s: components = %d, want 5", sa.Algorithm.Name(), s.NumComponents())
		}
	}
}

// TestStreamingBatchPartitionInvariance: the final partition must not
// depend on how the edge stream is cut into batches, on any streaming
// algorithm.
func TestStreamingBatchPartitionInvariance(t *testing.T) {
	algs := StreamingAlgorithms()
	f := func(raw []uint16, batchSeed, algSeed uint8) bool {
		const n = 48
		edges := make([]graph.Edge, 0, len(raw))
		for _, r := range raw {
			edges = append(edges, graph.Edge{U: uint32(r) % n, V: uint32(r>>8) % n})
		}
		alg := algs[int(algSeed)%len(algs)].Algorithm
		batch := int(batchSeed)%7 + 1
		s1, _ := newStream(n, alg)
		for _, b := range splitBatches(edges, batch) {
			processBatch(t, s1, b, nil)
		}
		s2, _ := newStream(n, alg)
		processBatch(t, s2, edges, nil)
		l1, l2 := s1.Labels(), s2.Labels()
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if (l1[a] == l1[b]) != (l2[a] == l2[b]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyBatchDuplicatesMatchOracle pushes one batch that holds every
// edge three times, alternating orientation, plus self-loops, through each
// stream type's ProcessBatch, with the forest captured wherever the stream
// type captures one. The apply path does no deduplication, so the
// partition and the captured forest must come out right from idempotent
// unions and the pre-filter alone, and the batch must come back
// unmodified.
func TestApplyBatchDuplicatesMatchOracle(t *testing.T) {
	const n = 1 << 11
	edges := graph.RMATEdges(11, 3*n, 0.5, 0.1, 0.1, 7)
	var batch []graph.Edge
	for rep := 0; rep < 3; rep++ {
		for i, e := range edges {
			if rep%2 == 1 {
				e.U, e.V = e.V, e.U
			}
			batch = append(batch, e)
			if rep == 0 && i%64 == 0 {
				batch = append(batch, graph.Edge{U: e.U, V: e.U})
			}
		}
	}
	input := append([]graph.Edge(nil), batch...)
	g := graph.Build(n, edges)
	want := testutil.Components(g)
	crfa := liutarjan.Variant{Connect: liutarjan.Connect, Update: liutarjan.RootUpdate, Shortcut: liutarjan.FullShortcut, Alter: liutarjan.Alter}
	for _, alg := range []Algorithm{
		{Kind: FinishUnionFind, UF: unionfind.Variant{Union: unionfind.UnionRemCAS, Splice: unionfind.SplitAtomicOne}}, // Type i
		{Kind: FinishShiloachVishkin},     // Type ii
		{Kind: FinishLiuTarjan, LT: crfa}, // Type ii
		{Kind: FinishUnionFind, UF: unionfind.Variant{Union: unionfind.UnionRemCAS, Splice: unionfind.SpliceAtomic}}, // Type iii
	} {
		s, err := newStream(n, alg)
		if err != nil {
			t.Fatal(err)
		}
		name := alg.Name()
		processBatch(t, s, batch, nil)
		testutil.CheckPartition(t, name, s.Labels(), want)
		if s.forestErr == nil { // Type iii has no forest to capture
			_, forest := streamSource{s}.ForestPull(0, nil)
			testutil.CheckSpanningForest(t, name, g, forest)
		}
		if !slices.Equal(batch, input) {
			t.Fatalf("%s: ProcessBatch modified its input", name)
		}
	}
}

func TestStreamingMixedUpdatesQueries(t *testing.T) {
	// Path built left to right with concurrent queries; after all batches,
	// endpoints must be connected for every algorithm type.
	const n = 2000
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{U: uint32(i), V: uint32(i + 1)}
	}
	for _, sa := range StreamingAlgorithms() {
		s, err := newStream(n, sa.Algorithm)
		if err != nil {
			t.Fatal(err)
		}
		queries := [][2]uint32{{0, n - 1}, {5, 6}}
		var last []bool
		for _, b := range splitBatches(edges, 97) {
			last = processBatch(t, s, b, queries)
		}
		// A Type i batch's queries may race its own unions; one more
		// round of queries sees them all.
		last = processBatch(t, s, nil, queries)
		if !last[0] || !last[1] {
			t.Fatalf("%s: final queries = %v, want all true", sa.Algorithm.Name(), last)
		}
	}
}
