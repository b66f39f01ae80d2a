package unionfind

import "sync/atomic"

// This file implements the find rules of Algorithm 8 plus the two-try
// splitting find of Jayanti, Tarjan, and Boix-Adserà. All loads and stores
// of parent entries are atomic; every compression write is guarded by a CAS
// so a stale compression can never clobber a concurrent improvement.

// findNaive follows parent pointers to the root without compressing.
func (d *DSU) findNaive(u uint32) uint32 {
	steps := 0
	p := atomic.LoadUint32(&d.parent[u])
	for u != p {
		u = p
		p = atomic.LoadUint32(&d.parent[u])
		steps++
	}
	d.stats.observe(steps)
	return u
}

// findCompress locates the root, then fully compresses the traversed path.
// The early break (p <= r) relies on the decreasing-parent invariant
// maintained by the ID-linking unions; Union-JTB (priority linking) is
// restricted to FindNaive/FindTwoTrySplit by New, so the invariant holds
// whenever this runs.
func (d *DSU) findCompress(u uint32) uint32 {
	steps := 0
	r := u
	for {
		p := atomic.LoadUint32(&d.parent[r])
		if p == r {
			break
		}
		r = p
		steps++
	}
	for u != r {
		p := atomic.LoadUint32(&d.parent[u])
		if p <= r {
			break
		}
		atomic.CompareAndSwapUint32(&d.parent[u], p, r)
		u = p
		steps++
	}
	d.stats.observe(steps)
	return r
}

// findSplit performs atomic path splitting: every vertex on the find path is
// re-pointed at its grandparent.
func (d *DSU) findSplit(u uint32) uint32 {
	steps := 0
	for {
		v := atomic.LoadUint32(&d.parent[u])
		w := atomic.LoadUint32(&d.parent[v])
		if v == w {
			d.stats.observe(steps)
			return v
		}
		atomic.CompareAndSwapUint32(&d.parent[u], v, w)
		u = v
		steps++
	}
}

// findHalve performs atomic path halving: every other vertex on the find
// path is re-pointed at its grandparent and the traversal skips to it.
func (d *DSU) findHalve(u uint32) uint32 {
	steps := 0
	for {
		v := atomic.LoadUint32(&d.parent[u])
		w := atomic.LoadUint32(&d.parent[v])
		if v == w {
			d.stats.observe(steps)
			return v
		}
		atomic.CompareAndSwapUint32(&d.parent[u], v, w)
		u = atomic.LoadUint32(&d.parent[u])
		steps++
	}
}

// ProbeSame is a read-only bounded connectivity probe over any parent
// array whose pointers never leave a component (every union-find variant
// here, plus the min-label parent arrays of Shiloach-Vishkin and RootUp
// Liu-Tarjan): it chases both chains in lockstep for at most budget steps,
// performs no compression writes, and takes no locks. A true result means
// u and v are definitely connected (the chains met, and connectivity is
// monotone under insertions); false means "distinct roots or budget
// exhausted" and carries no negative guarantee. It is safe to run
// concurrently with unions and finds of every variant — including Rem +
// SpliceAtomic, whose phase-concurrency restriction applies to finds that
// compress, not to read-only chases — and is the pre-filter probe of
// core.Stream's buffered rounds.
func ProbeSame(parent []uint32, u, v uint32, budget int) bool {
	if u == v {
		return true
	}
	for i := 0; i < budget; i++ {
		pu := atomic.LoadUint32(&parent[u])
		pv := atomic.LoadUint32(&parent[v])
		if pu == pv {
			// The chains met: a common vertex witnesses connectivity.
			return true
		}
		if pu == u && pv == v {
			// Both are (currently) distinct roots: not connected right now.
			return false
		}
		u, v = pu, pv
	}
	return false
}

// findTwoTrySplit is the find of Union-JTB [59]: at each step it attempts
// the splitting CAS up to twice before advancing, which bounds the expected
// work per operation.
func (d *DSU) findTwoTrySplit(u uint32) uint32 {
	steps := 0
	for {
		v := atomic.LoadUint32(&d.parent[u])
		w := atomic.LoadUint32(&d.parent[v])
		if v == w {
			d.stats.observe(steps)
			return v
		}
		if !atomic.CompareAndSwapUint32(&d.parent[u], v, w) {
			// Second try with refreshed values.
			v2 := atomic.LoadUint32(&d.parent[u])
			w2 := atomic.LoadUint32(&d.parent[v2])
			if v2 == w2 {
				d.stats.observe(steps)
				return v2
			}
			atomic.CompareAndSwapUint32(&d.parent[u], v2, w2)
			u = v2
			steps++
			continue
		}
		u = v
		steps++
	}
}
