package liutarjan

import (
	"sync/atomic"

	"connectit/internal/concurrent"
	"connectit/internal/graph"
	"connectit/internal/minlabel"
	"connectit/internal/parallel"
)

// noWitnessRef marks a packed candidate that carries no witness edge (the
// round-start self priority installed by the pack phase).
const noWitnessRef = ^uint32(0)

// ForestEdgeRunner executes a RootUp Liu-Tarjan variant over explicit edge
// lists with witness capture — the black-box connectivity-to-spanning-forest
// conversion of Theorem 6, and the one LT forest mechanism: the static
// forest hook runs it over the finish phase's collected edges, and the
// streaming Type (ii) apply path runs it over every batch, so a stream
// always maintains a live spanning forest (DESIGN.md §12). The packed
// next-array, the work-edge list, and every round body are retained across
// Run calls, so a steady-state Run performs zero allocations (the forest
// append amortizes into caller-retained capacity).
//
// Offers go to round-start roots only (the RootUp rule), each carrying the
// index of the input edge it descends from; the apply phase at the round
// barrier installs winning candidates with atomic stores (wait-free queries
// chase parent concurrently, §3.5) and appends the witness edge of every
// root hooked away from itself. Labels are monotone non-increasing and a
// hooked vertex is never a root again, so each vertex contributes at most
// one forest edge over the stream's lifetime.
//
// A runner is not safe for concurrent use; the streaming layer serializes
// Type (ii) rounds by construction.
type ForestEdgeRunner struct {
	v Variant

	next []uint64
	work []workEdge

	// Per-Run state referenced by the hoisted bodies.
	ord    minlabel.Order
	parent []uint32
	edges  []graph.Edge

	connectChanged  atomic.Bool
	shortcutChanged atomic.Bool

	packBody     func(lo, hi int)
	fillBody     func(lo, hi int)
	connectBody  func(lo, hi int)
	shortcutBody func(lo, hi int)
}

// NewForestEdgeRunner builds a reusable witness-capturing runner for a
// RootUp variant, returning ErrNotRootBased otherwise (only root-based
// variants support spanning forest, §3.4).
func NewForestEdgeRunner(v Variant) (*ForestEdgeRunner, error) {
	if !v.RootBased() {
		return nil, ErrNotRootBased
	}
	r := &ForestEdgeRunner{v: v}
	r.packBody = r.runPack
	r.fillBody = r.runFill
	r.connectBody = r.runConnect
	r.shortcutBody = r.runShortcut
	return r, nil
}

func (r *ForestEdgeRunner) runPack(lo, hi int) {
	parent, next := r.parent, r.next
	for i := lo; i < hi; i++ {
		next[i] = concurrent.Pack(atomic.LoadUint32(&parent[i]), noWitnessRef)
	}
}

func (r *ForestEdgeRunner) runFill(lo, hi int) {
	edges, work := r.edges, r.work
	for i := lo; i < hi; i++ {
		work[i] = workEdge{a: edges[i].U, b: edges[i].V, orig: uint32(i)}
	}
}

func (r *ForestEdgeRunner) runConnect(lo, hi int) {
	ord, parent, next, work := r.ord, r.parent, r.next, r.work
	local := false
	for i := lo; i < hi; i++ {
		e := work[i]
		switch r.v.Connect {
		case Connect:
			local = offerRootPacked(ord, parent, next, e.a, e.b, e.orig) || local
			local = offerRootPacked(ord, parent, next, e.b, e.a, e.orig) || local
		case ParentConnect:
			pa := atomic.LoadUint32(&parent[e.a])
			pb := atomic.LoadUint32(&parent[e.b])
			local = offerRootPacked(ord, parent, next, e.a, pb, e.orig) || local
			local = offerRootPacked(ord, parent, next, e.b, pa, e.orig) || local
		}
	}
	if local {
		r.connectChanged.Store(true)
	}
}

func (r *ForestEdgeRunner) runShortcut(lo, hi int) {
	ord, parent := r.ord, r.parent
	local := false
	for i := lo; i < hi; i++ {
		p := atomic.LoadUint32(&parent[i])
		pp := atomic.LoadUint32(&parent[p])
		if pp != p && ord.WriteMin(&parent[i], pp) {
			local = true
		}
	}
	if local {
		r.shortcutChanged.Store(true)
	}
}

// Run refines parent over the edges until convergence, with the same round
// structure and termination condition as EdgeRunner.Run, and appends one
// witness edge per hooked root to forest. It returns the rounds executed
// and the grown forest. The input edge slice is never modified. favored has
// EdgeRunner.Run's semantics: the sampled most-frequent component compares
// below every other label (Theorem 4), which the Connect rule's raw-ID
// candidates need to compose with sampling; streams pass nil.
func (r *ForestEdgeRunner) Run(edges []graph.Edge, parent []uint32, favored []bool, forest []graph.Edge) (int, []graph.Edge) {
	n := len(parent)
	r.ord = minlabel.Order{Favored: favored}
	r.parent, r.edges = parent, edges
	if cap(r.next) < n {
		r.next = make([]uint64, n)
	}
	r.next = r.next[:n]
	if cap(r.work) < len(edges) {
		r.work = make([]workEdge, len(edges))
	}
	r.work = r.work[:len(edges)]
	parallel.ForGrained(len(edges), 2048, r.fillBody)
	rounds := 0
	for {
		rounds++
		parallel.ForGrained(n, 4096, r.packBody)
		r.connectChanged.Store(false)
		parallel.ForGrained(len(r.work), 512, r.connectBody)
		// Apply phase: install winning candidates and record the witness
		// edge of every root hooked away from itself. Serial, so the forest
		// appends need no synchronization, and cheap relative to the O(n)
		// pack and shortcut sweeps already in the round.
		for i := 0; i < n; i++ {
			pri, ref := concurrent.Unpack(r.next[i])
			if r.ord.Less(pri, atomic.LoadUint32(&parent[i])) {
				atomic.StoreUint32(&parent[i], pri)
				if ref != noWitnessRef {
					forest = append(forest, edges[ref])
				}
			}
		}
		shortcutChanged := false
		for {
			r.shortcutChanged.Store(false)
			parallel.ForGrained(n, 1024, r.shortcutBody)
			changed := r.shortcutChanged.Load()
			shortcutChanged = shortcutChanged || changed
			if r.v.Shortcut == OneShortcut || !changed {
				break
			}
		}
		alterChanged := false
		if r.v.Alter == Alter {
			r.work, alterChanged = alterWork(r.work, parent)
		}
		if !r.connectChanged.Load() && !shortcutChanged && !alterChanged {
			r.parent, r.edges = nil, nil
			return rounds, forest
		}
	}
}
