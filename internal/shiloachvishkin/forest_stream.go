package shiloachvishkin

import (
	"sync/atomic"

	"connectit/internal/concurrent"
	"connectit/internal/graph"
	"connectit/internal/parallel"
)

// hookSentinel is the empty hook slot: its priority (^uint32(0)) loses to
// every real label, so any packed writeMin claims the slot.
const hookSentinel = uint64(^uint32(0)) << 32

// EdgeForestRunner executes Shiloach-Vishkin over explicit COO edge lists
// with witness capture. It is the one SV spanning-forest mechanism
// (Theorem 6): the static forest hook runs it over the finish phase's
// collected edges, and the streaming Type (ii) apply path (§3.5) runs it
// over every batch, so a stream always maintains a live spanning forest
// (DESIGN.md §12). Each round hooks roots over the edges and then fully
// compresses every tree, as Run does over a graph. Hooks go through a
// packed writeMin into a retained per-root slot; the workers that win a
// hook record the root in a per-worker candidate buffer, and a serial apply
// phase at the round barrier installs each winning hook, appends its
// witness edge to the forest, and resets the slot — so the hooks array is
// all-sentinel again by the next round and the runner never pays an O(n)
// sweep per batch. Every buffer is retained across Run calls and the round
// bodies are hoisted closures, so a steady-state Run performs zero
// allocations (the forest append amortizes into caller-retained capacity).
//
// A runner is not safe for concurrent use; the streaming layer serializes
// Type (ii) rounds by construction. Parent stores are atomic because
// wait-free queries chase parent concurrently (§3.5).
type EdgeForestRunner struct {
	hooks []uint64   // per-root packed (priority, edge index); sentinel when empty
	bufs  [][]uint32 // per-worker hooked-root candidates

	// Per-Run state referenced by the hoisted bodies.
	edges  []graph.Edge
	parent []uint32

	hookBody     func(w *parallel.Worker, lo, hi int)
	compressBody func(lo, hi int)
}

// forestGrain is the edge-chunk size of the hook sweep.
const forestGrain = 512

// NewEdgeForestRunner builds a reusable witness-capturing runner over an
// n-vertex universe.
func NewEdgeForestRunner(n int) *EdgeForestRunner {
	r := &EdgeForestRunner{hooks: make([]uint64, n)}
	for i := range r.hooks {
		r.hooks[i] = hookSentinel
	}
	r.hookBody = r.runHooks
	r.compressBody = r.runCompress
	return r
}

func (r *EdgeForestRunner) runHooks(w *parallel.Worker, lo, hi int) {
	edges, parent, hooks := r.edges, r.parent, r.hooks
	buf := r.bufs[w.ID()]
	for i := lo; i < hi; i++ {
		e := edges[i]
		pv := atomic.LoadUint32(&parent[e.U])
		pu := atomic.LoadUint32(&parent[e.V])
		if pv == pu {
			continue
		}
		hi32, lo32 := pv, pu
		if hi32 < lo32 {
			hi32, lo32 = lo32, hi32
		}
		// Hook the larger root below the smaller label, carrying the edge
		// index as the witness reference. parent is only written at the
		// round barrier, so the root check stays valid for the whole sweep.
		if atomic.LoadUint32(&parent[hi32]) == hi32 &&
			concurrent.WriteMinPacked(&hooks[hi32], lo32, uint32(i)) {
			buf = append(buf, hi32)
		}
	}
	r.bufs[w.ID()] = buf
}

func (r *EdgeForestRunner) runCompress(lo, hi int) { compressRange(r.parent, lo, hi) }

// Run executes Shiloach-Vishkin over the edges, refining parent until no
// root hooks, and appends one witness edge per hook to forest. It returns
// the rounds executed and the grown forest. parent must be flat (every
// entry a root or pointing at one) on entry, which the identity start, a
// sampled star labeling, and the trailing compression of every previous Run
// guarantee — so each vertex is hooked at most once over the stream's
// lifetime and the appended edges extend a spanning forest of everything
// ingested so far.
func (r *EdgeForestRunner) Run(edges []graph.Edge, parent []uint32, forest []graph.Edge) (int, []graph.Edge) {
	n := len(parent)
	if len(r.hooks) != n {
		r.hooks = make([]uint64, n)
		for i := range r.hooks {
			r.hooks[i] = hookSentinel
		}
	}
	for len(r.bufs) < parallel.Width(len(edges), forestGrain) {
		r.bufs = append(r.bufs, nil)
	}
	r.edges, r.parent = edges, parent
	rounds := 0
	for {
		rounds++
		for i := range r.bufs {
			r.bufs[i] = r.bufs[i][:0]
		}
		parallel.ForWorkerSized(len(edges), forestGrain, len(r.bufs), r.hookBody)
		applied := false
		for _, buf := range r.bufs {
			for _, t := range buf {
				h := r.hooks[t]
				if h == hookSentinel {
					continue // duplicate candidate: already applied below
				}
				r.hooks[t] = hookSentinel
				pri, ref := concurrent.Unpack(h)
				if pri < atomic.LoadUint32(&parent[t]) {
					atomic.StoreUint32(&parent[t], pri)
					forest = append(forest, edges[ref])
					applied = true
				}
			}
		}
		if !applied {
			r.edges, r.parent = nil, nil
			return rounds, forest
		}
		parallel.ForGrained(n, compressGrain, r.compressBody)
	}
}
