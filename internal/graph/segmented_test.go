package graph

import (
	"strings"
	"sync"
	"testing"
)

// TestTrySegmentMatchesCSR sweeps the compression panel through forced
// segmentation at several byte targets and checks the segmented view decodes
// to exactly the CSR graph, including the by-position path.
func TestTrySegmentMatchesCSR(t *testing.T) {
	for name, g := range compressPanel() {
		for _, segBytes := range []uint64{1, 64, 1 << 20} {
			s, err := TrySegment(g, segBytes)
			if err != nil {
				t.Fatalf("%s/%d: segment: %v", name, segBytes, err)
			}
			checkSameGraph(t, name, g, s)
			if s.NumSegments() < 1 {
				t.Fatalf("%s/%d: %d segments", name, segBytes, s.NumSegments())
			}
			out := make([]Vertex, 2)
			for v := 0; v < g.NumVertices(); v++ {
				want := g.Neighbors(Vertex(v))
				if len(want) == 0 {
					continue
				}
				pos := []Vertex{Vertex(len(want) - 1), 0}
				s.NeighborsAt(Vertex(v), pos, out)
				for i, p := range pos {
					if out[i] != want[p] {
						t.Fatalf("%s/%d: vertex %d position %d = %d, want %d", name, segBytes, v, p, out[i], want[p])
					}
				}
			}

			back := s.Decompress()
			if back.NumVertices() != g.NumVertices() || back.NumDirectedEdges() != g.NumDirectedEdges() {
				t.Fatalf("%s/%d: decompress size mismatch", name, segBytes)
			}
		}
	}
}

// TestTrySegmentSplits pins the splitting behavior: a 1-byte target isolates
// every nonempty adjacency in its own segment, and a large target yields a
// single segment.
func TestTrySegmentSplits(t *testing.T) {
	g := Path(100) // every vertex has a tiny nonempty adjacency
	s, err := TrySegment(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumSegments() < 50 {
		t.Fatalf("1-byte target produced only %d segments for a 100-path", s.NumSegments())
	}
	one, err := TrySegment(g, 0) // 0 selects the real cap
	if err != nil {
		t.Fatal(err)
	}
	if one.NumSegments() != 1 {
		t.Fatalf("uncapped segmentation produced %d segments, want 1", one.NumSegments())
	}
	if !strings.Contains(s.String(), "segments=") {
		t.Fatalf("String() = %q, want segment count", s.String())
	}
}

// TestTryCompressAutoSegments exercises the auto-segmentation seam behind
// TryCompress with the injectable cap: a graph whose encoding exceeds the
// single-segment cap silently becomes a SegmentedGraph instead of erroring,
// and one oversized adjacency list that can never fit a segment is the only
// remaining error.
func TestTryCompressAutoSegments(t *testing.T) {
	g := RMAT(10, 6000, 0.57, 0.19, 0.19, 3)

	r, err := tryCompressAuto(g, maxCompressedBytes, maxCompressedBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.(*CompressedGraph); !ok {
		t.Fatalf("roomy cap compressed to %T, want *CompressedGraph", r)
	}

	r, err = tryCompressAuto(g, 1024, 1024)
	if err != nil {
		t.Fatalf("beyond-cap graph should auto-segment, got %v", err)
	}
	s, ok := r.(*SegmentedGraph)
	if !ok {
		t.Fatalf("beyond-cap graph compressed to %T, want *SegmentedGraph", r)
	}
	if s.NumSegments() < 3 {
		t.Fatalf("1 KiB segments over a %d-byte encoding gave %d segments, want >= 3", s.SizeBytes(), s.NumSegments())
	}
	checkSameGraph(t, "auto-segmented", g, s)

	// Star(4096)'s center adjacency alone exceeds a 1 KiB cap: no split at
	// vertex granularity can help, so this must surface the cap error.
	if _, err := tryCompressAuto(Star(4096), 1024, 1024); err == nil ||
		!strings.Contains(err.Error(), "single-segment offset-index cap") {
		t.Fatalf("oversized vertex err = %v, want single-segment cap error", err)
	}
}

// TestSegmentedConcurrentReads hammers NeighborsInto and Degree from many
// goroutines: the shared last-segment hint is the only mutable state, and
// the race detector verifies its atomics while the assertions verify reads
// stay correct whatever the hint holds.
func TestSegmentedConcurrentReads(t *testing.T) {
	g := RMAT(10, 8000, 0.57, 0.19, 0.19, 4)
	s, err := TrySegment(g, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumSegments() < 3 {
		t.Fatalf("need >= 3 segments, got %d", s.NumSegments())
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			var buf []Vertex
			n := g.NumVertices()
			for i := 0; i < 20000; i++ {
				v := Vertex((i*2654435761 + seed*97) % n)
				want := g.Neighbors(v)
				if s.Degree(v) != len(want) {
					t.Errorf("degree mismatch at %d", v)
					return
				}
				buf = s.NeighborsInto(v, buf)
				if len(buf) != len(want) {
					t.Errorf("decode length mismatch at %d", v)
					return
				}
				for j := range want {
					if buf[j] != want[j] {
						t.Errorf("neighbor mismatch at %d[%d]", v, j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
