package connectit

// Cross-cutting property-based integration tests over the public API: for
// random graphs, every sampling × finish combination must induce the same
// partition, spanning forests must be exact, and streaming must agree with
// static computation.

import (
	"testing"
	"testing/quick"

	"connectit/internal/testutil"
)

// randomGraph derives a small random graph from quick-generated bytes.
func randomGraph(raw []uint16, n int) *Graph {
	edges := make([]Edge, 0, len(raw))
	for _, r := range raw {
		edges = append(edges, Edge{U: uint32(r) % uint32(n), V: uint32(r>>8) % uint32(n)})
	}
	return BuildGraph(n, edges)
}

func TestPropertyAllSamplingModesAgree(t *testing.T) {
	f := func(raw []uint16, algoSeed uint8) bool {
		const n = 96
		g := randomGraph(raw, n)
		algos := Algorithms()
		alg := algos[int(algoSeed)%len(algos)]
		var first []uint32
		for _, mode := range []Config{
			{Sampling: NoSampling, Algorithm: alg, Seed: 3},
			{Sampling: KOutSampling, Algorithm: alg, Seed: 3},
			{Sampling: BFSSampling, Algorithm: alg, Seed: 3},
			{Sampling: LDDSampling, Algorithm: alg, Seed: 3},
		} {
			labels, err := Connectivity(g, mode)
			if err != nil {
				return false
			}
			if first == nil {
				first = labels
				continue
			}
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					if (first[a] == first[b]) != (labels[a] == labels[b]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLabelingIsEquivalenceConsistentWithBFS(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 128
		g := randomGraph(raw, n)
		labels, err := Connectivity(g, DefaultConfig())
		if err != nil {
			return false
		}
		truth := testutil.Components(g)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if (labels[a] == labels[b]) != (truth[a] == truth[b]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySpanningForestExact(t *testing.T) {
	f := func(raw []uint16, pick uint8) bool {
		const n = 64
		g := randomGraph(raw, n)
		// Rotate through a few representative forest-capable algorithms.
		crfa, _ := LiuTarjanAlgorithm("CRFA")
		algos := []Algorithm{
			UnionFindAlgorithm(UnionRemCAS, FindNaive, SplitAtomicOne),
			UnionFindAlgorithm(UnionAsync, FindCompress, SplitAtomicOne),
			ShiloachVishkinAlgorithm(),
			crfa,
		}
		cfg := Config{Sampling: KOutSampling, Algorithm: algos[int(pick)%len(algos)], Seed: 9}
		forest, err := SpanningForest(g, cfg)
		if err != nil {
			return false
		}
		truth := testutil.Components(g)
		comps := testutil.NumComponents(truth)
		if len(forest) != n-comps {
			return false
		}
		// Forest edges must be acyclic and real.
		parent := make([]int, n)
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		for _, e := range forest {
			if find(int(e.U)) == find(int(e.V)) {
				return false
			}
			parent[find(int(e.U))] = find(int(e.V))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStreamingAgreesWithStatic(t *testing.T) {
	f := func(raw []uint16, batchPick uint8) bool {
		const n = 80
		g := randomGraph(raw, n)
		edges := g.Edges()
		staticLabels, err := Connectivity(g, DefaultConfig())
		if err != nil {
			return false
		}
		inc, err := NewStream(n, DefaultConfig())
		if err != nil {
			return false
		}
		batch := int(batchPick)%9 + 1
		for lo := 0; lo < len(edges); lo += batch {
			hi := lo + batch
			if hi > len(edges) {
				hi = len(edges)
			}
			inc.ProcessBatch(edges[lo:hi], nil)
		}
		streamLabels := inc.Labels()
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if (staticLabels[a] == staticLabels[b]) != (streamLabels[a] == streamLabels[b]) {
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

func TestCompressedGraphMatchesConnectivity(t *testing.T) {
	// The byte-compressed CSR must describe the same graph: decompress and
	// compare partitions (exercises the decode-while-traversing path).
	g := NewRMAT(11, 10000, 4)
	labels1, err := Connectivity(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	truth := testutil.Components(g)
	testutil.CheckPartition(t, "compressed-vs-plain", labels1, truth)
}
