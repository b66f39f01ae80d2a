package graph

import (
	"slices"
	"testing"
)

// rmatEdgesSequential is the definition of the RMAT stream — one rng, drawn
// from in edge order on one goroutine — kept as the reference the
// chunk-parallel RMATEdges must reproduce exactly.
func rmatEdgesSequential(scale int, m int, a, b, c float64, seed uint64) []Edge {
	n := uint64(1) << scale
	r := newRNG(seed)
	edges := make([]Edge, m)
	for i := range edges {
		var u, v uint64
		for bit := n >> 1; bit > 0; bit >>= 1 {
			p := r.float()
			switch {
			case p < a:
			case p < a+b:
				v |= bit
			case p < a+b+c:
				u |= bit
			default:
				u |= bit
				v |= bit
			}
		}
		edges[i] = Edge{Vertex(u), Vertex(v)}
	}
	return edges
}

// TestRMATEdgesMatchesSequentialReference: the parallel generator emits the
// sequential stream bit for bit, at edge counts that are not a multiple of
// its chunk, for both parameter sets the repo uses and for probabilities of
// 0 and 1, and at scales 31 and 32, whose first draws set the top bits of
// a 32-bit vertex. CI runs it at -cpu 1,4.
func TestRMATEdgesMatchesSequentialReference(t *testing.T) {
	for _, scale := range []int{1, 12, 19, 31, 32} {
		for _, seed := range []uint64{0, 42, 1<<63 + 12345} {
			for _, m := range []int{0, 1, 4095, 4097, 3*4096 + 1234, 100_003} {
				if scale > 19 && m > 4097 {
					continue
				}
				for _, abc := range [][3]float64{{0.57, 0.19, 0.19}, {0.5, 0.1, 0.1}, {0, 0, 1}, {1, 0, 0}} {
					got := RMATEdges(scale, m, abc[0], abc[1], abc[2], seed)
					want := rmatEdgesSequential(scale, m, abc[0], abc[1], abc[2], seed)
					if !slices.Equal(got, want) {
						t.Fatalf("scale %d seed %d m %d abc %v: parallel stream differs from the sequential one", scale, seed, m, abc)
					}
				}
			}
		}
	}
}

// TestRNGSkip: skip(k) lands exactly where k draws would.
func TestRNGSkip(t *testing.T) {
	for _, k := range []uint64{0, 1, 19, 1 << 20} {
		drawn, skipped := newRNG(7), newRNG(7)
		for i := uint64(0); i < k; i++ {
			drawn.next()
		}
		skipped.skip(k)
		if drawn.next() != skipped.next() {
			t.Fatalf("skip(%d) diverges from %d draws", k, k)
		}
	}
}

// BenchmarkRMATEdges generates the scale-16 stream BenchmarkBuild builds,
// the generator half of every RMAT set-up.
func BenchmarkRMATEdges(b *testing.B) {
	for b.Loop() {
		RMATEdges(16, 16*(1<<16), 0.57, 0.19, 0.19, 2)
	}
}
