package main

import (
	"fmt"

	"connectit"
)

// reference is the answer the program's outputs are checked against: a
// sequential union-find run in the benchmark over the same edges, sharing
// no code with the system under test.
type reference struct {
	root       []uint32 // fully compressed: root[v] is v's component representative
	components int
}

func find(parent []uint32, x uint32) uint32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// refBuilder accumulates the edges a workload sends, list by list.
type refBuilder struct {
	parent []uint32
	comps  int
}

func newRefBuilder(n int) *refBuilder {
	parent := make([]uint32, n)
	for i := range parent {
		parent[i] = uint32(i)
	}
	return &refBuilder{parent: parent, comps: n}
}

// add unions the edges in, always hanging the larger root under the
// smaller, so that a component's representative is its minimum vertex.
func (b *refBuilder) add(edges []connectit.Edge) {
	for _, e := range edges {
		x, y := find(b.parent, e.U), find(b.parent, e.V)
		if x == y {
			continue
		}
		if x < y {
			x, y = y, x
		}
		b.parent[x] = y
		b.comps--
	}
}

func (b *refBuilder) finish() *reference {
	for i := range b.parent {
		b.parent[i] = find(b.parent, uint32(i))
	}
	return &reference{root: b.parent, components: b.comps}
}

func newReference(n int, edges []connectit.Edge) *reference {
	b := newRefBuilder(n)
	b.add(edges)
	return b.finish()
}

func (r *reference) connected(u, v uint32) bool { return r.root[u] == r.root[v] }

// checkPartition reports whether labels induce exactly the reference's
// partition: the label→root and root→label relations must both be
// functions.
func (r *reference) checkPartition(labels []uint32) error {
	if len(labels) != len(r.root) {
		return fmt.Errorf("labels cover %d vertices, reference %d", len(labels), len(r.root))
	}
	const unset = ^uint32(0)
	toRoot := make([]uint32, len(labels))
	toLabel := make([]uint32, len(labels))
	for i := range toLabel {
		toRoot[i], toLabel[i] = unset, unset
	}
	for v, l := range labels {
		if int(l) >= len(labels) {
			return fmt.Errorf("label %d of vertex %d is not a vertex", l, v)
		}
		root := r.root[v]
		if got := toRoot[l]; got == unset {
			toRoot[l] = root
		} else if got != root {
			return fmt.Errorf("label %d joins reference components %d and %d (vertex %d)", l, got, root, v)
		}
		if toLabel[root] == unset {
			toLabel[root] = l
		} else if toLabel[root] != l {
			return fmt.Errorf("reference component %d is split between labels %d and %d (vertex %d)", root, toLabel[root], l, v)
		}
	}
	return nil
}
