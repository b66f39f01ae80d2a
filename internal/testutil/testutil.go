// Package testutil provides the shared ground-truth oracle and graph panel
// used by the test suites of every algorithm package.
package testutil

import (
	"testing"

	"connectit/internal/graph"
)

// Components computes the reference connectivity labeling with a sequential
// BFS; the label of each component is its minimum vertex ID.
func Components(g *graph.Graph) []uint32 {
	n := g.NumVertices()
	labels := make([]uint32, n)
	for i := range labels {
		labels[i] = graph.None
	}
	queue := make([]graph.Vertex, 0, 64)
	for v := 0; v < n; v++ {
		if labels[v] != graph.None {
			continue
		}
		labels[v] = uint32(v)
		queue = append(queue[:0], graph.Vertex(v))
		for len(queue) > 0 {
			x := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range g.Neighbors(x) {
				if labels[u] == graph.None {
					labels[u] = uint32(v)
					queue = append(queue, u)
				}
			}
		}
	}
	return labels
}

// NumComponents counts components in a reference labeling.
func NumComponents(labels []uint32) int {
	c := 0
	for v, l := range labels {
		if uint32(v) == l {
			c++
		}
	}
	return c
}

// CheckPartition fails the test unless got and want induce the same
// partition of the vertices.
func CheckPartition(t *testing.T, name string, got, want []uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: labeling length %d, want %d", name, len(got), len(want))
	}
	fwd := make(map[uint32]uint32)
	rev := make(map[uint32]uint32)
	for v := range got {
		if l, ok := fwd[want[v]]; ok {
			if l != got[v] {
				t.Fatalf("%s: vertex %d: same true component, labels %d vs %d", name, v, l, got[v])
			}
		} else {
			fwd[want[v]] = got[v]
		}
		if w, ok := rev[got[v]]; ok {
			if w != want[v] {
				t.Fatalf("%s: label %d spans two true components", name, got[v])
			}
		} else {
			rev[got[v]] = want[v]
		}
	}
}

// CheckSpanningForest fails the test unless forest is a spanning forest of
// g: acyclic, using only real edges, with exactly n - #components edges,
// inducing the reference partition.
func CheckSpanningForest(t *testing.T, name string, g *graph.Graph, forest []graph.Edge) {
	t.Helper()
	want := Components(g)
	comps := NumComponents(want)
	n := g.NumVertices()
	if len(forest) != n-comps {
		t.Fatalf("%s: forest has %d edges, want n-#comps = %d", name, len(forest), n-comps)
	}
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
		u, v := int(e.U), int(e.V)
		if u < 0 || u >= n || v < 0 || v >= n {
			t.Fatalf("%s: forest edge (%d,%d) out of range", name, u, v)
		}
		isEdge := false
		for _, x := range g.Neighbors(graph.Vertex(u)) {
			if x == graph.Vertex(v) {
				isEdge = true
				break
			}
		}
		if !isEdge {
			t.Fatalf("%s: forest edge (%d,%d) is not a graph edge", name, u, v)
		}
		if find(u) == find(v) {
			t.Fatalf("%s: forest edge (%d,%d) creates a cycle", name, u, v)
		}
		parent[find(u)] = find(v)
	}
	gotLabels := make([]uint32, n)
	for v := range gotLabels {
		gotLabels[v] = uint32(find(v))
	}
	CheckPartition(t, name+"/forest-partition", gotLabels, want)
}

// Panel returns the standard test graph panel: the adversarial fixtures plus
// class analogs of the paper's inputs (DESIGN.md §8) at test scale.
func Panel() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"empty":     graph.Build(0, nil),
		"single":    graph.Build(1, nil),
		"isolated":  graph.Build(50, nil),
		"one-edge":  graph.Build(4, []graph.Edge{{U: 1, V: 3}}),
		"path":      graph.Path(300),
		"cycle":     graph.Cycle(128),
		"star":      graph.Star(200),
		"grid":      graph.Grid2D(20, 25),
		"cliques":   graph.Cliques(6, 12),
		"bridged":   bridgedCliques(),
		"rmat":      graph.RMAT(11, 12000, 0.57, 0.19, 0.19, 4),
		"ba":        graph.BarabasiAlbert(1500, 4, 8),
		"er-sparse": graph.ErdosRenyi(2048, 1500, 6),
		"weblike":   graph.WebLike(11, 6000, 0.2, 12),
	}
}

// bridgedCliques returns two cliques joined by a single bridge edge.
func bridgedCliques() *graph.Graph {
	g := graph.Cliques(2, 20)
	edges := g.Edges()
	edges = append(edges, graph.Edge{U: 5, V: 25})
	return graph.Build(40, edges)
}
