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
