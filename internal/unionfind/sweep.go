package unionfind

import (
	"sync/atomic"

	"connectit/internal/concurrent"
	"connectit/internal/graph"
)

// This file holds the chunk kernels for the flat CSR: each call covers a
// whole [lo, hi) vertex range straight off offsets/adj, so a chunk of 256
// vertices costs one call instead of an interface call for the list and a
// UnionNeighbors call (with its entry checks) per vertex. The Rem-CAS
// ascent is written out in each loop, as in UnionNeighbors: a helper
// holding it is over the inliner's budget, and an out-of-line call per edge
// measured no faster than the per-vertex path (DESIGN.md §10).

// plainRemCAS reports whether d runs the call-free Rem-CAS ascent: the rule
// is Union-Rem-CAS and nothing is recorded per union (no witness, log or
// Stats). Every other DSU takes the per-edge unite path.
func (d *DSU) plainRemCAS() bool {
	return d.witness == nil && d.wlog == nil && d.stats == nil && d.opt.Union == UnionRemCAS
}

// SweepCSR is the finish sweep over vertices [lo, hi) of a CSR graph: for
// every v not flagged in skip (nil flags nothing) it does exactly what
// UnionNeighbors(v, adj[offsets[v]:offsets[v+1]], v+1, skip) does, the
// compressing finds after a link included. A DSU that is not plainRemCAS
// runs each vertex through UnionNeighbors.
func (d *DSU) SweepCSR(lo, hi int, offsets []uint64, adj []uint32, skip []bool) {
	if !d.plainRemCAS() {
		for v := lo; v < hi; v++ {
			if skip == nil || !skip[v] {
				d.UnionNeighbors(uint32(v), adj[offsets[v]:offsets[v+1]], uint32(v)+1, skip)
			}
		}
		return
	}
	parent, rule, compress := d.parent, d.opt.Splice, d.opt.Find != FindNaive
	for v := lo; v < hi; v++ {
		if skip != nil && skip[v] {
			continue
		}
		from := uint32(v) + 1
		for _, u := range adj[offsets[v]:offsets[v+1]] {
			if u < from && (skip == nil || !skip[u]) {
				continue
			}
			rx, ry := uint32(v), u
			px := atomic.LoadUint32(&parent[rx])
			py := atomic.LoadUint32(&parent[ry])
			for px != py {
				if px < py {
					rx, ry, px, py = ry, rx, py, px
				}
				if rx != px {
					rx = spliceAt(parent, rule, rx, px, py)
				} else if atomic.CompareAndSwapUint32(&parent[rx], rx, py) {
					if compress {
						d.Find(uint32(v))
						d.Find(u)
					}
					break
				}
				px = atomic.LoadUint32(&parent[rx])
				py = atomic.LoadUint32(&parent[ry])
			}
		}
	}
}

// KOutCSR is k-out sampling's union pass over vertices [lo, hi) of a CSR
// graph: each vertex of degree deg > 0 is unioned with the neighbour at
// graph.KOutPosition(v, i, deg, lead, seed) for every i < k that the rule
// does not drop, each pick as soon as it is read. A DSU that is not
// plainRemCAS applies each pick through unite, as UnionNeighbors does with
// from = 0, recording the (v, u) witness.
func (d *DSU) KOutCSR(lo, hi int, offsets []uint64, adj []uint32, k, lead int, seed uint64) {
	if !d.plainRemCAS() {
		for v := lo; v < hi; v++ {
			nbrs := adj[offsets[v]:offsets[v+1]]
			for i := 0; len(nbrs) > 0 && i < k; i++ {
				if p, ok := graph.KOutPosition(uint64(v), i, len(nbrs), lead, seed); ok {
					d.unite(uint32(v), nbrs[p], concurrent.Pack(uint32(v), nbrs[p]))
				}
			}
		}
		return
	}
	parent, rule, compress := d.parent, d.opt.Splice, d.opt.Find != FindNaive
	for v := lo; v < hi; v++ {
		nbrs := adj[offsets[v]:offsets[v+1]]
		if len(nbrs) == 0 {
			continue
		}
		for i := 0; i < k; i++ {
			p, ok := graph.KOutPosition(uint64(v), i, len(nbrs), lead, seed)
			if !ok {
				continue
			}
			u := nbrs[p]
			rx, ry := uint32(v), u
			px := atomic.LoadUint32(&parent[rx])
			py := atomic.LoadUint32(&parent[ry])
			for px != py {
				if px < py {
					rx, ry, px, py = ry, rx, py, px
				}
				if rx != px {
					rx = spliceAt(parent, rule, rx, px, py)
				} else if atomic.CompareAndSwapUint32(&parent[rx], rx, py) {
					if compress {
						d.Find(uint32(v))
						d.Find(u)
					}
					break
				}
				px = atomic.LoadUint32(&parent[rx])
				py = atomic.LoadUint32(&parent[ry])
			}
		}
	}
}

// SweepOwned is the private first phase of an unsampled CSR finish: it
// does what SweepCSR(lo, hi, offsets, adj, nil) does, with plain loads and
// stores instead of atomic ones, until it meets the first vertex with an
// edge to some u >= hi. It returns that vertex, or hi when there is none;
// the caller then applies [stop, hi) with SweepCSR. A vertex whose last
// neighbour is >= hi stops the phase before any of its edges is applied,
// so on a sorted list (every graph.Build CSR) the stop vertex is left whole
// to SweepCSR; on an unsorted one, its edges before the crossing one are
// applied again there, which is harmless: a union is idempotent, and the
// ascent that was cut short only shortened paths. Only a plainRemCAS DSU
// with FindNaive takes this phase; any other returns lo at once and so
// leaves the whole range to SweepCSR.
//
// Precondition: every parent in [lo, hi) is an id in [lo, hi), and no other
// goroutine reads or writes parent[lo:hi] until the call returns. An
// identity start (an unsampled run) satisfies the first part, and the
// phase keeps it: a link or a splice stores only a value it read from the
// range. A sampled start does not, since its star roots lie anywhere, and
// a caller must not infer the precondition from the absence of skip flags.
// The ascent is written out apart from the atomic ones (DESIGN.md §10), and
// TestSweepOwnedParity holds it to them.
func (d *DSU) SweepOwned(lo, hi int, offsets []uint64, adj []uint32) (stop int) {
	if !d.plainRemCAS() || d.opt.Find != FindNaive {
		return lo
	}
	parent, rule, end := d.parent, d.opt.Splice, uint32(hi)
	for v := lo; v < hi; v++ {
		from := uint32(v) + 1
		nbrs := adj[offsets[v]:offsets[v+1]]
		if len(nbrs) > 0 && nbrs[len(nbrs)-1] >= end {
			return v
		}
		for _, u := range nbrs {
			if u < from {
				continue
			}
			if u >= end {
				return v
			}
			rx, ry := uint32(v), u
			px, py := parent[rx], parent[ry]
			for px != py {
				if px < py {
					rx, ry, px, py = ry, rx, py, px
				}
				if rx == px {
					parent[rx] = py
					break
				}
				rx = splicePlain(parent, rule, rx, px, py)
				px, py = parent[rx], parent[ry]
			}
		}
	}
	return hi
}

// splicePlain is spliceAt with plain loads and stores, for SweepOwned's
// private range: no other goroutine can change parent[rx] between the load
// that read px and the store, so each of spliceAt's CASes would succeed.
func splicePlain(parent []uint32, rule SpliceOption, rx, px, py uint32) uint32 {
	if rule == SpliceAtomic {
		parent[rx] = py
		return px
	}
	wv := parent[px]
	if px != wv {
		parent[rx] = wv
	}
	if rule == HalveAtomicOne {
		return wv
	}
	return px
}
