package unionfind

import (
	"sync/atomic"

	"connectit/internal/concurrent"
)

// This file implements the union rules of §3.3.1 / Appendix D.2. Every rule
// is root-based: a link is only installed at a vertex verified (by CAS or
// under lock) to be a root at the instant of linking, and links always point
// to a smaller value (smaller ID, or higher JTB priority), so the forest
// stays acyclic and label changes are exactly unions of trees — the
// linearizable-monotonicity property of Definition 3.3.
//
// Every rule reports whether it linked two roots. A vertex stops being a
// root only through such a link, and at most once, so at quiescence the
// true results number exactly n minus the components; false means the rule
// found both endpoints in one set.

func (d *DSU) unite(u, v uint32, w uint64) bool {
	d.stats.addUnion()
	switch d.opt.Union {
	case UnionAsync:
		return d.uniteAsync(u, v, w)
	case UnionHooks:
		return d.uniteHooks(u, v, w)
	case UnionEarly:
		return d.uniteEarly(u, v, w)
	case UnionRemCAS, UnionRemLock:
		return d.uniteRem(u, v, w)
	case UnionJTB:
		return d.uniteJTB(u, v, w)
	}
	return false
}

// uniteAsync repeatedly finds both roots and CASes the larger-ID root to
// point at the smaller, retrying on contention (Jayanti-Tarjan linking by
// ID, adapted to the asynchronous shared-memory setting).
func (d *DSU) uniteAsync(u, v uint32, w uint64) bool {
	for {
		ru := d.Find(u)
		rv := d.Find(v)
		if ru == rv {
			return false
		}
		if ru < rv {
			ru, rv = rv, ru
		}
		if atomic.CompareAndSwapUint32(&d.parent[ru], ru, rv) {
			d.recordWitness(ru, w)
			return true
		}
	}
}

// uniteHooks is uniteAsync with the contended CAS moved to the auxiliary
// hooks array; the parents write is then uncontended because each vertex is
// hooked at most once over the whole execution.
func (d *DSU) uniteHooks(u, v uint32, w uint64) bool {
	for {
		ru := d.Find(u)
		rv := d.Find(v)
		if ru == rv {
			return false
		}
		if ru < rv {
			ru, rv = rv, ru
		}
		if atomic.LoadUint32(&d.hooks[ru]) == noVertex &&
			atomic.CompareAndSwapUint32(&d.hooks[ru], noVertex, rv) {
			atomic.StoreUint32(&d.parent[ru], rv)
			d.recordWitness(ru, w)
			return true
		}
	}
}

// uniteEarly walks both paths together and eagerly hooks a vertex the moment
// it is observed to be a root with a larger ID (GBBS unite_early). When a
// non-naive find rule is configured, the endpoints are compressed after the
// union completes, as the paper describes.
func (d *DSU) uniteEarly(u, v uint32, w uint64) bool {
	ou, ov := u, v
	steps := 0
	linked := false
	for u != v {
		if u > v {
			u, v = v, u
		}
		// u < v: try to hook v (if it is a root) below u.
		if atomic.LoadUint32(&d.parent[v]) == v &&
			atomic.CompareAndSwapUint32(&d.parent[v], v, u) {
			d.recordWitness(v, w)
			linked = true
			break
		}
		v = atomic.LoadUint32(&d.parent[v])
		steps++
	}
	d.stats.observe(steps)
	if d.opt.Find != FindNaive {
		d.Find(ou)
		d.Find(ov)
	}
	return linked
}

// uniteRem is Rem's algorithm (Algorithm 14) in both of its forms: it
// ascends both paths keeping the invariant parent(rx) > parent(ry), links
// when rx is a root, and otherwise applies the configured splice rule at rx
// by CAS (spliceAt). Union-Rem-CAS links by one CAS on rx's parent;
// Union-Rem-Lock (Patwary et al.) links through lockLink, which stores the
// link under rx's spinlock after re-checking that rx is still a root. The
// splice is the same CAS in both.
func (d *DSU) uniteRem(u, v uint32, w uint64) bool { return d.remAscent(u, v, w, true) }

// remAscent is uniteRem's loop. It reports whether the ascent reached a
// root rx with parent(ry) < rx, which puts u and v in two sets at that
// instant: with link it then links rx and reports whether it did (a lost
// CAS or lock re-check goes on ascending), and without it it stops there
// having linked nothing, which is Joined's answer negated. false means the
// two paths met, so u and v are in one set.
func (d *DSU) remAscent(u, v uint32, w uint64, link bool) bool {
	rx, ry := u, v
	steps := 0
	px := atomic.LoadUint32(&d.parent[rx])
	py := atomic.LoadUint32(&d.parent[ry])
	for px != py {
		if px < py {
			rx, ry = ry, rx
			px, py = py, px
		}
		// parent(rx) > parent(ry)
		if rx != px {
			rx = spliceAt(d.parent, d.opt.Splice, rx, px, py)
		} else if !link {
			return true
		} else if d.opt.Union == UnionRemLock && d.lockLink(rx, py) ||
			d.opt.Union == UnionRemCAS && atomic.CompareAndSwapUint32(&d.parent[rx], rx, py) {
			// rx was a root: it now hangs below ry's parent.
			d.recordWitness(rx, w)
			d.stats.observe(steps)
			if d.opt.Find != FindNaive {
				d.Find(u)
				d.Find(v)
			}
			return true
		}
		px = atomic.LoadUint32(&d.parent[rx])
		py = atomic.LoadUint32(&d.parent[ry])
		steps++
	}
	d.stats.observe(steps)
	return false
}

// lockLink is Union-Rem-Lock's link: under rx's spinlock it re-checks that
// rx is still a root and only then points it at py, reporting whether it
// did. py < rx, so the link keeps parents decreasing and cannot create a
// cycle.
func (d *DSU) lockLink(rx, py uint32) bool {
	d.locks[rx].Lock()
	root := atomic.LoadUint32(&d.parent[rx]) == rx
	if root {
		atomic.StoreUint32(&d.parent[rx], py)
	}
	d.locks[rx].Unlock()
	return root
}

// spliceAt applies a splice rule (Algorithm 9) at a non-root vertex rx whose
// loaded parent is px, with py the smaller opposing parent. It returns the
// vertex at which the union loop continues. A free function over the parent
// slice so that the sweep kernel below inlines it with parent in a register.
func spliceAt(parent []uint32, rule SpliceOption, rx, px, py uint32) uint32 {
	if rule == SpliceAtomic {
		// Rem's splice: point rx at the smaller parent py and continue
		// from rx's old parent. py < px keeps parents decreasing.
		atomic.CompareAndSwapUint32(&parent[rx], px, py)
		return px
	}
	// One step of path splitting (continue at px) or halving (at wv).
	wv := atomic.LoadUint32(&parent[px])
	if px != wv {
		atomic.CompareAndSwapUint32(&parent[rx], px, wv)
	}
	if rule == HalveAtomicOne {
		return wv
	}
	return px
}

// UnionNeighbors unions v with every u in nbrs that is >= from or flagged in
// skip (nil flags nothing). It is the kernel of an adjacency-list sweep: the
// finish sweep passes from = v+1, so each undirected edge of the symmetric
// graph is applied once, by its lower-id endpoint, except edges into a
// skipped vertex (whose own list is never scanned), which the unskipped side
// applies whatever the ids; k-out passes from = 0 to apply all its picks.
//
// The variant is resolved once per list, not once per edge. Union-Rem-CAS
// without instrumentation or witness recording (plainRemCAS) runs the ascent
// of uniteRem written out in the loop: no call per edge, parent in a
// register. Everything else (Stats, witnesses, the other union rules) takes
// the per-edge unite path, which remains the definition of each rule;
// TestSweepKernelParity holds the two together. On the flat CSR the finish
// sweep and k-out call the chunk kernels of sweep.go instead, one call per
// chunk of vertices.
func (d *DSU) UnionNeighbors(v uint32, nbrs []uint32, from uint32, skip []bool) {
	if !d.plainRemCAS() {
		for _, u := range nbrs {
			if u < from && (skip == nil || !skip[u]) {
				continue
			}
			d.unite(v, u, concurrent.Pack(v, u))
		}
		return
	}
	parent, rule, compress := d.parent, d.opt.Splice, d.opt.Find != FindNaive
	for _, u := range nbrs {
		if u < from && (skip == nil || !skip[u]) {
			continue
		}
		rx, ry := v, u
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
					d.Find(v)
					d.Find(u)
				}
				break
			}
			px = atomic.LoadUint32(&parent[rx])
			py = atomic.LoadUint32(&parent[ry])
		}
	}
}

// uniteJTB links roots ordered by random priority (Jayanti, Tarjan,
// Boix-Adserà): the lower-priority root is hooked below the higher-priority
// one, giving the randomized work bounds of Corollary 1.
func (d *DSU) uniteJTB(u, v uint32, w uint64) bool {
	for {
		ru := d.Find(u)
		rv := d.Find(v)
		if ru == rv {
			return false
		}
		if d.jtbLess(rv, ru) {
			ru, rv = rv, ru
		}
		// ru has lower (priority, id): hook it below rv.
		if atomic.CompareAndSwapUint32(&d.parent[ru], ru, rv) {
			d.recordWitness(ru, w)
			return true
		}
	}
}
