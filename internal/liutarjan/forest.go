package liutarjan

import (
	"errors"
	"sync/atomic"

	"connectit/internal/minlabel"
)

// ErrNotRootBased is returned by NewForestEdgeRunner for variants that
// relabel non-roots; only the RootUp algorithms support spanning forest
// (§3.4).
var ErrNotRootBased = errors.New("liutarjan: spanning forest requires a RootUp variant")

// workEdge carries an edge's current (possibly altered) label endpoints
// together with the index of the original graph edge it descends from, so
// witness recording always emits real edges.
type workEdge struct {
	a, b uint32
	orig uint32
}

// offerRootPacked proposes cand (with witness ref) to the root parent of
// endpoint x, mirroring offer's RootUpdate path with a packed writeMin under
// the favored order.
func offerRootPacked(ord minlabel.Order, parent []uint32, next []uint64, x, cand, ref uint32) bool {
	target := atomic.LoadUint32(&parent[x])
	if atomic.LoadUint32(&parent[target]) != target {
		return false
	}
	return ord.WriteMinPacked(&next[target], cand, ref)
}

// alterWork rewrites work edges to current labels, preserving the original
// edge reference and dropping self loops. It reports whether any edge
// changed (same termination significance as EdgeRunner's alter).
func alterWork(work []workEdge, parent []uint32) ([]workEdge, bool) {
	kept := work[:0]
	changed := false
	for _, e := range work {
		a := atomic.LoadUint32(&parent[e.a])
		b := atomic.LoadUint32(&parent[e.b])
		if a != e.a || b != e.b {
			changed = true
		}
		if a != b {
			kept = append(kept, workEdge{a: a, b: b, orig: e.orig})
		}
	}
	return kept, changed
}
