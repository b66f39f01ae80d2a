// Package liutarjan implements the Liu-Tarjan framework of simple concurrent
// connectivity algorithms (§3.3.2) — all sixteen rule combinations the paper
// evaluates (Appendix D.4) — and Stergiou et al.'s algorithm, which is the
// two-parent-array sibling of the framework's PUS variant (§B.2.5).
//
// Each round processes the remaining edge list and performs, per edge, a
// connect rule (Connect / ParentConnect / ExtendedConnect) gathering
// candidate parents with writeMin, an optional root-only update restriction
// (RootUp), a shortcut phase (one step or to fixpoint), and an optional
// alter phase that rewrites edges to current labels and drops self loops.
// The algorithm terminates when neither connects nor shortcuts change any
// parent.
//
// When composed with sampling, labels are compared in the favored order of
// package minlabel so the largest sampled component's label is the global
// minimum and its vertices never change labels (Theorem 4).
package liutarjan

import (
	"sync/atomic"

	"connectit/internal/graph"
	"connectit/internal/minlabel"
	"connectit/internal/parallel"
)

// ConnectRule selects the connect phase operation.
type ConnectRule int

// Connect rules: candidates are the edge endpoints (Connect), the endpoint
// parents (ParentConnect), or the endpoint parents offered to both the
// endpoints and their parents (ExtendedConnect).
const (
	Connect ConnectRule = iota
	ParentConnect
	ExtendedConnect
)

// UpdateRule selects which vertices may have their parent updated.
type UpdateRule int

// Update rules: any vertex (SimpleUpdate) or only round-start tree roots
// (RootUpdate). RootUpdate variants are monotone and hence root-based.
const (
	SimpleUpdate UpdateRule = iota
	RootUpdate
)

// ShortcutRule selects the compression applied after the connect phase.
type ShortcutRule int

// Shortcut rules: a single pointer-jumping step or jumping to fixpoint.
const (
	OneShortcut ShortcutRule = iota
	FullShortcut
)

// AlterRule selects whether edges are rewritten to current labels.
type AlterRule int

// Alter rules. Alter is required for correctness with Connect.
const (
	NoAlter AlterRule = iota
	Alter
)

// Variant is one algorithm of the framework.
type Variant struct {
	Connect  ConnectRule
	Update   UpdateRule
	Shortcut ShortcutRule
	Alter    AlterRule
}

// Code renders the paper's four-letter naming (e.g. CRFA = Connect, RootUp,
// FullShortcut, Alter; PUS = ParentConnect, Update, Shortcut).
func (v Variant) Code() string {
	c := map[ConnectRule]string{Connect: "C", ParentConnect: "P", ExtendedConnect: "E"}[v.Connect]
	u := map[UpdateRule]string{SimpleUpdate: "U", RootUpdate: "R"}[v.Update]
	s := map[ShortcutRule]string{OneShortcut: "S", FullShortcut: "F"}[v.Shortcut]
	a := map[AlterRule]string{NoAlter: "", Alter: "A"}[v.Alter]
	return c + u + s + a
}

// RootBased reports whether the variant only relabels roots, making it
// usable for spanning forest and classifying it with the root-based
// algorithms (§3.4).
func (v Variant) RootBased() bool { return v.Update == RootUpdate }

// Variants enumerates the sixteen combinations evaluated in the paper
// (Appendix D.4). Connect variants always include Alter, which their
// correctness requires.
func Variants() []Variant {
	return []Variant{
		{Connect, SimpleUpdate, OneShortcut, Alter},            // CUSA
		{Connect, RootUpdate, OneShortcut, Alter},              // CRSA
		{ParentConnect, SimpleUpdate, OneShortcut, Alter},      // PUSA
		{ParentConnect, RootUpdate, OneShortcut, Alter},        // PRSA
		{ParentConnect, SimpleUpdate, OneShortcut, NoAlter},    // PUS
		{ParentConnect, RootUpdate, OneShortcut, NoAlter},      // PRS
		{ExtendedConnect, SimpleUpdate, OneShortcut, Alter},    // EUSA
		{ExtendedConnect, SimpleUpdate, OneShortcut, NoAlter},  // EUS
		{Connect, SimpleUpdate, FullShortcut, Alter},           // CUFA
		{Connect, RootUpdate, FullShortcut, Alter},             // CRFA
		{ParentConnect, SimpleUpdate, FullShortcut, Alter},     // PUFA
		{ParentConnect, RootUpdate, FullShortcut, Alter},       // PRFA
		{ParentConnect, SimpleUpdate, FullShortcut, NoAlter},   // PUF
		{ParentConnect, RootUpdate, FullShortcut, NoAlter},     // PRF
		{ExtendedConnect, SimpleUpdate, FullShortcut, Alter},   // EUFA
		{ExtendedConnect, SimpleUpdate, FullShortcut, NoAlter}, // EUF
	}
}

// CollectEdges gathers the undirected edges that the finish phase must
// process: every edge with at least one unskipped endpoint, exactly once.
// It takes any graph representation (graph.Rep): the edge-list
// materialization the Liu-Tarjan framework needs decodes straight off
// compressed encodings. Accumulation is worker-local (one growing buffer
// and one decode scratch per pool worker, no mutex) with a final sized
// concatenation.
func CollectEdges(g graph.Rep, skip []bool) []graph.Edge {
	n := g.NumVertices()
	const grain = 256
	nw := parallel.Width(n, grain)
	locals := make([][]graph.Edge, nw)
	bufs := make([][]graph.Vertex, nw)
	parallel.ForWorkerSized(n, grain, nw, func(w *parallel.Worker, lo, hi int) {
		id := w.ID()
		local, buf := locals[id], bufs[id]
		for v := lo; v < hi; v++ {
			if skip != nil && skip[v] {
				continue
			}
			buf = g.NeighborsInto(graph.Vertex(v), buf)
			for _, u := range buf {
				// Keep (v,u) once: from the smaller unskipped endpoint, or
				// from v when u is skipped (the only side that sees it).
				if graph.Vertex(v) < u || (skip != nil && skip[u]) {
					local = append(local, graph.Edge{U: graph.Vertex(v), V: u})
				}
			}
		}
		locals[id], bufs[id] = local, buf
	})
	total := 0
	for _, l := range locals {
		total += len(l)
	}
	out := make([]graph.Edge, 0, total)
	for _, l := range locals {
		out = append(out, l...)
	}
	return out
}

// altGrain is the edge-block size of the alter compaction passes.
const altGrain = 2048

// EdgeRunner executes one Liu-Tarjan variant over explicit edge lists with
// every per-round resource hoisted out of the round loop: the connect,
// publish, shortcut, and alter bodies are closures over the runner built
// once at construction (a closure built inside the loop would be one heap
// allocation per sweep), the next-array and the alter double-buffers grow
// once and are reused, and alter compacts survivors with a deterministic
// count/scan/scatter instead of a mutex-ordered append. A steady-state
// Run therefore performs zero allocations — the property a compiled
// Solver's repeated Liu-Tarjan finishes rely on, guarded by
// TestEdgeRunnerSteadyStateAllocs.
//
// A runner is not safe for concurrent use.
type EdgeRunner struct {
	v Variant

	// Per-Run state, referenced by the hoisted bodies.
	ord    minlabel.Order
	parent []uint32
	edges  []graph.Edge

	next   []uint32
	bufA   []graph.Edge // alter double buffer: survivors land in the buffer
	bufB   []graph.Edge // the current edge list does NOT occupy
	intoA  bool
	dst    []graph.Edge
	counts []uint64

	connectChanged  atomic.Bool
	shortcutChanged atomic.Bool
	alterChanged    atomic.Bool

	connectBody  func(lo, hi int)
	publishBody  func(lo, hi int)
	copyBody     func(lo, hi int)
	shortcutBody func(lo, hi int)
	countBody    func(blo, bhi int) // over altGrain blocks
	scatterBody  func(blo, bhi int)
}

// NewEdgeRunner builds a reusable runner for one variant. Its round-end
// copy-back publishes with plain stores, so no reader may chase parent while
// it runs; the streaming Type (ii) path, whose wait-free queries do, runs
// the atomically publishing ForestEdgeRunner instead.
func NewEdgeRunner(v Variant) *EdgeRunner {
	r := &EdgeRunner{v: v}
	r.connectBody = r.runConnect
	r.publishBody = r.publish
	r.copyBody = r.copyToNext
	r.shortcutBody = r.runShortcut
	r.countBody = r.runCount
	r.scatterBody = r.runScatter
	return r
}

// Run refines the labeling in parent over edges (CollectEdges output, or a
// batch in COO form) until convergence and returns the number of rounds.
// favored, when non-nil, marks the vertices of the sampled most-frequent
// component: their IDs compare smaller than every other label (the paper's
// relabel-to-smallest-IDs construction, Theorem 4). Rounds publish with
// plain stores, so no reader may chase parent while it runs. The input
// slice is never modified: the first alter pass compacts into runner-owned
// buffers.
func (r *EdgeRunner) Run(edges []graph.Edge, parent []uint32, favored []bool) int {
	r.ord = minlabel.Order{Favored: favored}
	r.parent = parent
	r.edges = edges
	r.intoA = true
	n := len(parent)
	if cap(r.next) < n {
		r.next = make([]uint32, n)
	}
	r.next = r.next[:n]
	rounds := 0
	for {
		rounds++
		parallel.ForGrained(n, 4096, r.copyBody)
		r.connectChanged.Store(false)
		parallel.ForGrained(len(r.edges), 512, r.connectBody)
		parallel.ForGrained(n, 4096, r.publishBody)

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
			// An alter that rewrote any endpoint can enable progress on the
			// next round even when no label changed this round (Connect's
			// raw-ID candidates only see the rewritten endpoints), so it
			// counts as a change for termination.
			alterChanged = r.alter()
		}
		if !r.connectChanged.Load() && !shortcutChanged && !alterChanged {
			r.edges = nil
			r.parent = nil
			return rounds
		}
	}
}

func (r *EdgeRunner) copyToNext(lo, hi int) {
	copy(r.next[lo:hi], r.parent[lo:hi])
}

func (r *EdgeRunner) publish(lo, hi int) {
	copy(r.parent[lo:hi], r.next[lo:hi])
}

func (r *EdgeRunner) runConnect(lo, hi int) {
	ord, parent, next, edges := r.ord, r.parent, r.next, r.edges
	local := false
	for i := lo; i < hi; i++ {
		e := edges[i]
		u, w := e.U, e.V
		switch r.v.Connect {
		case Connect:
			local = offer(ord, parent, next, u, w, r.v.Update) || local
			local = offer(ord, parent, next, w, u, r.v.Update) || local
		case ParentConnect:
			pu := atomic.LoadUint32(&parent[u])
			pw := atomic.LoadUint32(&parent[w])
			local = offer(ord, parent, next, u, pw, r.v.Update) || local
			local = offer(ord, parent, next, w, pu, r.v.Update) || local
		case ExtendedConnect:
			pu := atomic.LoadUint32(&parent[u])
			pw := atomic.LoadUint32(&parent[w])
			local = offer(ord, parent, next, u, pw, r.v.Update) || local
			local = offer(ord, parent, next, w, pu, r.v.Update) || local
			local = offer(ord, parent, next, pu, pw, r.v.Update) || local
			local = offer(ord, parent, next, pw, pu, r.v.Update) || local
		}
	}
	if local {
		r.connectChanged.Store(true)
	}
}

func (r *EdgeRunner) runShortcut(lo, hi int) {
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

// alter rewrites every remaining edge to the current labels of its
// endpoints and drops self loops, compacting survivors into the spare
// double buffer via blocked count/scan/scatter (deterministic order, no
// mutex, no allocation in steady state). It reports whether any edge was
// rewritten or dropped.
func (r *EdgeRunner) alter() bool {
	m := len(r.edges)
	if m == 0 {
		return false
	}
	blocks := (m + altGrain - 1) / altGrain
	if cap(r.counts) < blocks {
		r.counts = make([]uint64, blocks)
	}
	r.counts = r.counts[:blocks]
	r.alterChanged.Store(false)
	parallel.ForGrained(blocks, 1, r.countBody)
	total := parallel.ScanExclusive(r.counts)
	dst := r.bufB
	if r.intoA {
		dst = r.bufA
	}
	if uint64(cap(dst)) < total {
		dst = make([]graph.Edge, total)
	}
	dst = dst[:total]
	if r.intoA {
		r.bufA = dst
	} else {
		r.bufB = dst
	}
	r.intoA = !r.intoA
	r.dst = dst
	parallel.ForGrained(blocks, 1, r.scatterBody)
	if total != uint64(m) {
		r.alterChanged.Store(true)
	}
	r.edges = dst
	return r.alterChanged.Load()
}

func (r *EdgeRunner) runCount(blo, bhi int) {
	edges, parent, counts := r.edges, r.parent, r.counts
	for b := blo; b < bhi; b++ {
		lo, hi := b*altGrain, min((b+1)*altGrain, len(edges))
		var c uint64
		for i := lo; i < hi; i++ {
			a := atomic.LoadUint32(&parent[edges[i].U])
			z := atomic.LoadUint32(&parent[edges[i].V])
			if a != z {
				c++
			}
		}
		counts[b] = c
	}
}

func (r *EdgeRunner) runScatter(blo, bhi int) {
	edges, parent, counts, dst := r.edges, r.parent, r.counts, r.dst
	changed := false
	for b := blo; b < bhi; b++ {
		lo, hi := b*altGrain, min((b+1)*altGrain, len(edges))
		pos := counts[b]
		for i := lo; i < hi; i++ {
			a := atomic.LoadUint32(&parent[edges[i].U])
			z := atomic.LoadUint32(&parent[edges[i].V])
			if a != edges[i].U || z != edges[i].V {
				changed = true
			}
			if a != z {
				dst[pos] = graph.Edge{U: a, V: z}
				pos++
			}
		}
	}
	if changed {
		r.alterChanged.Store(true)
	}
}

// offer proposes candidate cand on behalf of endpoint x. With SimpleUpdate
// the candidate targets x itself; with RootUpdate it targets x's parent and
// only if that parent is a round-start tree root (Liu-Tarjan's R rule, which
// links roots and is therefore monotone and root-based). Candidates only win
// if they precede the current proposal in the favored order, so parents are
// monotone non-increasing.
func offer(ord minlabel.Order, parent, next []uint32, x, cand uint32, u UpdateRule) bool {
	target := x
	if u == RootUpdate {
		target = atomic.LoadUint32(&parent[x])
		if atomic.LoadUint32(&parent[target]) != target {
			return false // x's parent is not a root this round
		}
	}
	return ord.WriteMin(&next[target], cand)
}

// shortcut performs pointer jumping on parent: one step, or to fixpoint for
// FullShortcut. It reports whether anything changed.
func shortcut(ord minlabel.Order, parent []uint32, rule ShortcutRule) bool {
	changedEver := false
	for {
		var changed atomic.Bool
		parallel.ForGrained(len(parent), 1024, func(lo, hi int) {
			local := false
			for i := lo; i < hi; i++ {
				p := atomic.LoadUint32(&parent[i])
				pp := atomic.LoadUint32(&parent[p])
				if pp != p && ord.WriteMin(&parent[i], pp) {
					local = true
				}
			}
			if local {
				changed.Store(true)
			}
		})
		if changed.Load() {
			changedEver = true
		}
		if rule == OneShortcut || !changed.Load() {
			return changedEver
		}
	}
}

func copyParallel(dst, src []uint32) {
	parallel.ForGrained(len(src), 4096, func(lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}

// RunStergiou executes Stergiou et al.'s algorithm (§B.2.5) over g:
// ParentConnect against a previous-round snapshot array, then a single
// shortcut, repeated to fixpoint. favored marks the sampled most-frequent
// component, whose out-edges are skipped and whose IDs compare smallest, as
// in EdgeRunner.Run. It returns the number of rounds.
func RunStergiou(g graph.Rep, parent []uint32, favored []bool) int {
	edges := CollectEdges(g, favored)
	ord := minlabel.Order{Favored: favored}
	n := len(parent)
	prev := make([]uint32, n)
	rounds := 0
	for {
		rounds++
		copyParallel(prev, parent)
		var changed atomic.Bool
		parallel.ForGrained(len(edges), 512, func(lo, hi int) {
			local := false
			for i := lo; i < hi; i++ {
				e := edges[i]
				if ord.WriteMin(&parent[e.U], prev[e.V]) {
					local = true
				}
				if ord.WriteMin(&parent[e.V], prev[e.U]) {
					local = true
				}
			}
			if local {
				changed.Store(true)
			}
		})
		if shortcut(ord, parent, OneShortcut) {
			changed.Store(true)
		}
		if !changed.Load() {
			return rounds
		}
	}
}
