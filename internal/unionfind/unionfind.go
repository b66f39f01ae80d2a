// Package unionfind implements every concurrent union-find variant in the
// ConnectIt framework (§3.3.1 of the paper):
//
//   - Union-Async: the classic asynchronous algorithm of Jayanti and Tarjan,
//     linking larger-ID roots under smaller-ID roots with CAS.
//   - Union-Hooks: Union-Async with the CAS performed on an auxiliary hooks
//     array followed by an uncontended write to the parents array.
//   - Union-Early: eagerly walks both paths together and hooks a vertex as
//     soon as it is discovered to be a root (GBBS unite_early).
//   - Union-Rem-CAS: a lock-free compare-and-swap version of Rem's algorithm
//     with a configurable splice rule (SplitAtomicOne, HalveAtomicOne, or
//     SpliceAtomic).
//   - Union-Rem-Lock: the lock-based Rem's algorithm of Patwary et al.
//   - Union-JTB: the randomized algorithm of Jayanti, Tarjan, and
//     Boix-Adserà with two-try splitting.
//
// Each union variant composes with a path-compression rule applied during
// finds: FindNaive (none), FindSplit (path splitting), FindHalve (path
// halving), FindCompress (full path compression), and, for Union-JTB,
// FindTwoTrySplit.
//
// All variants are min-based and linearizably monotone for concurrent unions
// and finds, except Rem's algorithms with SpliceAtomic, which are only
// phase-concurrent (unions and finds must be separated by a barrier;
// Theorem 3). The combination Rem + SpliceAtomic + FindCompress is incorrect
// (the paper's counter-example, §B.2.3) and is rejected by New.
package unionfind

import (
	"errors"
	"fmt"
	"sync/atomic"
	"unsafe"

	"connectit/internal/concurrent"
	"connectit/internal/graph"
	"connectit/internal/parallel"
)

// UnionOption selects the union rule.
type UnionOption int

// The union rules from §3.3.1.
const (
	UnionAsync UnionOption = iota
	UnionHooks
	UnionEarly
	UnionRemCAS
	UnionRemLock
	UnionJTB
)

func (u UnionOption) String() string {
	switch u {
	case UnionAsync:
		return "Union-Async"
	case UnionHooks:
		return "Union-Hooks"
	case UnionEarly:
		return "Union-Early"
	case UnionRemCAS:
		return "Union-Rem-CAS"
	case UnionRemLock:
		return "Union-Rem-Lock"
	case UnionJTB:
		return "Union-JTB"
	}
	return fmt.Sprintf("UnionOption(%d)", int(u))
}

// FindOption selects the path-compression rule applied by finds.
type FindOption int

// The find rules from Algorithm 8 (and two-try splitting from [59]).
const (
	FindNaive FindOption = iota
	FindSplit
	FindHalve
	FindCompress
	FindTwoTrySplit
)

func (f FindOption) String() string {
	switch f {
	case FindNaive:
		return "FindNaive"
	case FindSplit:
		return "FindSplit"
	case FindHalve:
		return "FindHalve"
	case FindCompress:
		return "FindCompress"
	case FindTwoTrySplit:
		return "FindTwoTrySplit"
	}
	return fmt.Sprintf("FindOption(%d)", int(f))
}

// SpliceOption selects the rule Rem's algorithms apply when a union step
// operates at a non-root vertex (Algorithm 9).
type SpliceOption int

// The splice rules for Rem's algorithms.
const (
	SplitAtomicOne SpliceOption = iota
	HalveAtomicOne
	SpliceAtomic
)

func (s SpliceOption) String() string {
	switch s {
	case SplitAtomicOne:
		return "SplitAtomicOne"
	case HalveAtomicOne:
		return "HalveAtomicOne"
	case SpliceAtomic:
		return "SpliceAtomic"
	}
	return fmt.Sprintf("SpliceOption(%d)", int(s))
}

// Options configures a DSU instance.
type Options struct {
	Union  UnionOption
	Find   FindOption
	Splice SpliceOption // used by Rem's algorithms only

	// RecordWitness enables spanning-forest support: the edge of the Union
	// (or UnionNeighbors) call that wins the hook of root r is recorded
	// for r.
	RecordWitness bool

	// WitnessLog additionally appends every winning witness edge to a
	// preallocated log readable incrementally with WitnessLogRead. This is
	// the streaming spanning-forest path (DESIGN.md §12): appends are a
	// fetch-add plus an atomic store, so capture stays allocation-free and
	// wait-free on the union hot path.
	WitnessLog bool

	// Stats, when non-nil, receives path-length and memory-operation
	// instrumentation (the paper's TPL/MPL analysis, §4.1.1).
	Stats *Stats

	// Seed seeds Union-JTB's random priorities.
	Seed uint64
}

// ErrInvalidCombination is returned by New for the algorithm combinations
// the paper proves incorrect or does not define.
var ErrInvalidCombination = errors.New("unionfind: invalid algorithm combination")

// NoWitness is the sentinel stored in the witness array for roots that were
// never hooked.
const NoWitness = ^uint64(0)

// noVertex is the sentinel used in the hooks array.
const noVertex = ^uint32(0)

// DSU is a concurrent disjoint-set (union-find) structure over vertices
// 0..n-1. All methods are safe for concurrent use, subject to the
// phase-concurrency restriction for Rem + SpliceAtomic documented above.
type DSU struct {
	parent  []uint32
	hooks   []uint32              // Union-Hooks auxiliary array
	locks   []concurrent.Spinlock // Union-Rem-Lock per-vertex locks
	prio    []uint32              // Union-JTB random priorities
	witness []uint64              // packed (u,v) edge that hooked each root
	wlog    []uint64              // append-only log of winning witness edges
	wcur    atomic.Int64          // wlog reservation cursor
	opt     Options
	stats   *Stats
}

// Validate reports whether opt is a combination the framework defines,
// returning ErrInvalidCombination for Rem + SpliceAtomic + FindCompress
// (incorrect, §B.2.3), FindTwoTrySplit with a non-JTB union, JTB with a find
// rule other than FindNaive or FindTwoTrySplit, and witness recording
// (spanning forest) with Rem + SpliceAtomic.
func Validate(opt Options) error {
	isRem := opt.Union == UnionRemCAS || opt.Union == UnionRemLock
	if isRem && opt.Splice == SpliceAtomic && opt.Find == FindCompress {
		return fmt.Errorf("%w: %v with SpliceAtomic and FindCompress", ErrInvalidCombination, opt.Union)
	}
	if opt.Find == FindTwoTrySplit && opt.Union != UnionJTB {
		return fmt.Errorf("%w: FindTwoTrySplit requires Union-JTB", ErrInvalidCombination)
	}
	if opt.Union == UnionJTB && opt.Find != FindNaive && opt.Find != FindTwoTrySplit {
		return fmt.Errorf("%w: Union-JTB supports FindNaive or FindTwoTrySplit", ErrInvalidCombination)
	}
	if isRem && opt.Splice == SpliceAtomic && (opt.RecordWitness || opt.WitnessLog) {
		// SpliceAtomic re-parents vertices across trees mid-union, so the
		// hooked root need not be the root of the witness edge's endpoint
		// and the recorded edges can form cycles. Spanning forest therefore
		// excludes this combination (see DESIGN.md §4).
		return fmt.Errorf("%w: spanning forest (RecordWitness) with %v and SpliceAtomic", ErrInvalidCombination, opt.Union)
	}
	return nil
}

// New creates a DSU with n singleton sets. It returns
// ErrInvalidCombination for the combinations Validate rejects.
func New(n int, opt Options) (*DSU, error) {
	if err := Validate(opt); err != nil {
		return nil, err
	}
	d := &DSU{
		parent: make([]uint32, n),
		opt:    opt,
		stats:  opt.Stats,
	}
	parallel.Iota(d.parent)
	d.initAux(n)
	return d, nil
}

// initAux (re)initializes the auxiliary arrays for n elements, reusing
// prior allocations when the size already matches.
func (d *DSU) initAux(n int) {
	switch d.opt.Union {
	case UnionHooks:
		if len(d.hooks) != n {
			d.hooks = make([]uint32, n)
		}
		parallel.For(n, func(i int) { d.hooks[i] = noVertex })
	case UnionRemLock:
		// Spinlocks are all released at quiescence, so an existing array is
		// reusable as-is.
		if len(d.locks) != n {
			d.locks = make([]concurrent.Spinlock, n)
		}
	case UnionJTB:
		// Priorities depend only on (index, seed); recompute only on resize.
		if len(d.prio) != n {
			d.prio = make([]uint32, n)
			seed := d.opt.Seed
			parallel.For(n, func(i int) {
				d.prio[i] = uint32(hash64(uint64(i) ^ seed))
			})
		}
	}
	if d.opt.RecordWitness {
		if len(d.witness) != n {
			d.witness = make([]uint64, n)
		}
		parallel.For(n, func(i int) { d.witness[i] = NoWitness })
	}
	if d.opt.WitnessLog {
		// n slots always suffice: every log append corresponds to a root
		// being hooked, and each of the n vertices stops being a root at
		// most once over the whole execution.
		if len(d.wlog) != n {
			d.wlog = make([]uint64, n)
		}
		parallel.For(n, func(i int) { d.wlog[i] = NoWitness })
		d.wcur.Store(0)
	}
}

// Reset re-adopts labels as the parent array and clears all per-run
// auxiliary state, reusing prior allocations when sizes match. labels is
// an existing partial connectivity labeling (the output of a sampling
// phase) and must be in canonical star form — labels[v] == v, or
// labels[v] == r with labels[r] == r and r == min of the star — which
// sample.Canonicalize guarantees; the decreasing-parent invariant that
// Rem's algorithms and FindCompress rely on then holds from the start
// (DESIGN.md §4). It is the reuse path behind core.Compile: a compiled
// Solver starts from MustNew(0, opt) and calls Reset instead of paying
// New's validation and allocations on every run. The DSU shares the labels
// slice. It must be called quiescently (no concurrent operations).
func (d *DSU) Reset(labels []uint32) {
	d.parent = labels
	d.initAux(len(labels))
}

// MustNew is New for known-valid combinations; it panics on error.
func MustNew(n int, opt Options) *DSU {
	d, err := New(n, opt)
	if err != nil {
		panic(err)
	}
	return d
}

// Len returns the number of elements.
func (d *DSU) Len() int { return len(d.parent) }

// Options returns the configuration the DSU was created with.
func (d *DSU) Options() Options { return d.opt }

// Parents exposes the underlying parent array. Callers must use atomic
// operations if the DSU is in concurrent use.
func (d *DSU) Parents() []uint32 { return d.parent }

// Union merges the sets containing u and v. It reports whether this call
// linked two roots; false means u and v were already in one set. With
// witness recording enabled, a true result records (u, v) as the hooked
// root's witness edge.
func (d *DSU) Union(u, v uint32) bool { return d.unite(u, v, concurrent.Pack(u, v)) }

// Find returns the current label (root) of u, applying the configured
// path-compression rule.
func (d *DSU) Find(u uint32) uint32 {
	switch d.opt.Find {
	case FindNaive:
		return d.findNaive(u)
	case FindSplit:
		return d.findSplit(u)
	case FindHalve:
		return d.findHalve(u)
	case FindCompress:
		return d.findCompress(u)
	case FindTwoTrySplit:
		return d.findTwoTrySplit(u)
	}
	return d.findNaive(u)
}

// SameSet reports whether u and v currently belong to the same set. It is
// wait-free for all variants except Rem + SpliceAtomic (phase-concurrent).
func (d *DSU) SameSet(u, v uint32) bool {
	ru, rv := d.Find(u), d.Find(v)
	for ru != rv {
		// Roots may have moved concurrently; re-check until stable.
		pru := atomic.LoadUint32(&d.parent[ru])
		prv := atomic.LoadUint32(&d.parent[rv])
		if pru == ru && prv == rv {
			return false
		}
		ru, rv = d.Find(pru), d.Find(prv)
	}
	return true
}

// SameParent reports whether u and v have one parent, by two loads and no
// call, so that it inlines at the call site: the common case of an edge or
// query on a flat forest, whose endpoints already hang off one root, is
// answered without Joined's or SameSet's walk. A true answer means u and v
// were in one set at the second load: parent pointers never leave a set
// and sets only merge, so parent[u] at the first load is still in u's set
// at the second. A false answer says nothing; the caller asks the walk.
// Under Union-Rem-CAS and Union-Rem-Lock it is the ascent's first
// comparison, which ends the walk before any splice, so asking it first
// leaves every parent array as the walk alone would. A DSU that carries
// Stats answers false, so TPL, MPL and union counts stay those of the walk
// (Joined's rule). Its concurrency is Union's: Rem + SpliceAtomic is
// phase-concurrent.
func (d *DSU) SameParent(u, v uint32) bool {
	p := d.parent
	return d.stats == nil && atomic.LoadUint32(&p[u]) == atomic.LoadUint32(&p[v])
}

// Joined reports whether u and v are in one set by the walk Union(u, v)
// would start with, and never links, so it records no witness and no log
// entry. Under Union-Rem-CAS and Union-Rem-Lock with SplitAtomicOne or
// HalveAtomicOne it is uniteRem's own ascent, splices included, stopped
// where the union would link; under every other rule it is Find(u) ==
// Find(v). Rem's SpliceAtomic splice moves a subtree into the other
// endpoint's tree, which only the link that ends the union makes whole
// again, so there Joined takes the finds too. A DSU that carries Stats
// answers false at once, so a caller that unions on false leaves the
// instrumentation exactly as Union alone would. A true answer holds from
// some instant of the call on; a false one may be stale. Joined has
// Union's concurrency: it may run beside unions and finds for every
// variant except Rem + SpliceAtomic, which is phase-concurrent. It is a
// call; a caller on a hot path asks the inlinable SameParent first, which
// answers the common case of a flat forest with two loads.
func (d *DSU) Joined(u, v uint32) bool {
	if d.stats != nil {
		return false
	}
	if (d.opt.Union == UnionRemCAS || d.opt.Union == UnionRemLock) && d.opt.Splice != SpliceAtomic {
		return !d.remAscent(u, v, 0, false)
	}
	return d.Find(u) == d.Find(v)
}

// Flatten fully compresses every path so that parent[v] is the root of v's
// tree. It must be called quiescently (no concurrent operation). One chunked
// pass with no state beyond parent, so independent DSUs may flatten
// concurrently: a vertex that is a root or one hop from one (every member of
// a sampled star) is left after two loads, the rest are chased to their root
// and stored once. Each such store is locked; on a deep forest whose caller
// owns a second array, RootsInto writes the same roots there with plain
// stores.
func (d *DSU) Flatten() {
	parent := d.parent
	parallel.ForGrained(len(parent), parallel.DefaultGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := atomic.LoadUint32(&parent[i])
			p := atomic.LoadUint32(&parent[r])
			if p == r {
				continue
			}
			for p != r {
				r = p
				p = atomic.LoadUint32(&parent[r])
			}
			atomic.StoreUint32(&parent[i], r)
		}
	})
}

// RootsInto writes the root of every element of the forest parent into
// dst: dst[v] is where following parent pointers from v stops at an element
// that is its own parent. It is one chunked pass with no state beyond its
// two arguments and, per chunk, the last (parent, root) pair whose parent
// is not itself a root: a vertex with that parent reuses the root instead
// of chasing again. That keeps the pass cheap on the forest a private-range
// sweep leaves, where runs of vertices hang off one parent two or more hops
// below its root (DESIGN.md §3.1). A parent that is a root costs one load
// either way, and remembering it too would make the reuse test flip
// unpredictably on a flat forest. parent is read with atomic loads and
// never written, so the pass may race unions (a chase follows live
// pointers, which never leave a component, and a reused root is one a chase
// saw at some instant, as any chase's is) and independent forests may be
// read concurrently. dst is written with plain stores, one per element,
// which is what makes the pass cheaper than Flatten on a deep forest; it
// must hold len(parent) elements and must not share memory with parent, or
// RootsInto panics.
func RootsInto(dst, parent []uint32) {
	n := len(parent)
	if len(dst) < n {
		panic(fmt.Sprintf("unionfind: RootsInto into %d elements, want %d", len(dst), n))
	}
	dst = dst[:n]
	if n > 0 {
		d, p := uintptr(unsafe.Pointer(&dst[0])), uintptr(unsafe.Pointer(&parent[0]))
		if size := uintptr(4 * n); d < p+size && p < d+size {
			panic("unionfind: RootsInto with dst overlapping parent")
		}
	}
	parallel.ForGrained(n, parallel.DefaultGrain, func(lo, hi int) {
		last, root := noVertex, noVertex
		for i := lo; i < hi; i++ {
			p := atomic.LoadUint32(&parent[i])
			if p == last {
				dst[i] = root
				continue
			}
			r := atomic.LoadUint32(&parent[p])
			if r != p {
				for q := atomic.LoadUint32(&parent[r]); q != r; q = atomic.LoadUint32(&parent[r]) {
					r = q
				}
				last, root = p, r
			}
			dst[i] = r
		}
	})
}

// Labels flattens the structure and returns the parent array as a
// connectivity labeling.
func (d *DSU) Labels() []uint32 {
	d.Flatten()
	return d.parent
}

// NumComponents flattens and counts the distinct sets.
func (d *DSU) NumComponents() int {
	d.Flatten()
	return int(parallel.Count(len(d.parent), func(i int) bool {
		return d.parent[i] == uint32(i)
	}))
}

// Witness returns the packed edge recorded as hooking root v, and whether
// one was recorded. Unpack with concurrent.Unpack.
func (d *DSU) Witness(v uint32) (uint64, bool) {
	if d.witness == nil {
		return NoWitness, false
	}
	w := atomic.LoadUint64(&d.witness[v])
	return w, w != NoWitness
}

// WitnessEdges appends every recorded witness edge to dst and returns it.
// Used by the spanning-forest framework (Algorithm 2).
func (d *DSU) WitnessEdges(dst []graph.Edge) []graph.Edge {
	if d.witness == nil {
		return dst
	}
	for v := range d.witness {
		if w := d.witness[v]; w != NoWitness {
			u, x := concurrent.Unpack(w)
			dst = append(dst, graph.Edge{U: u, V: x})
		}
	}
	return dst
}

// recordWitness stores the hooking edge for root r, and does nothing on a
// DSU without witness recording. Each root is hooked at most once across
// the entire execution, so a plain atomic store suffices for the per-root
// slot; log appends reserve a slot with a fetch-add and publish it with an
// atomic store (readers treat a still-sentinel slot as the current end of
// the log and resume there later). w is never NoWitness: that packs the
// self-loop (^0, ^0), which links nothing.
func (d *DSU) recordWitness(r uint32, w uint64) {
	if d.witness != nil {
		atomic.StoreUint64(&d.witness[r], w)
	}
	if d.wlog != nil {
		i := d.wcur.Add(1) - 1
		atomic.StoreUint64(&d.wlog[i], w)
	}
}

// WitnessLogLen returns the number of log slots reserved so far. Some of
// the most recent slots may still be unpublished; the value is exact at
// quiescence and a (momentary) upper bound under concurrent unions.
func (d *DSU) WitnessLogLen() int { return int(d.wcur.Load()) }

// WitnessLogRead copies packed witness edges (unpack with concurrent.Unpack)
// from the append-only log starting at cursor into dst, returning the new
// cursor and the number of edges copied. It is wait-free and safe to call
// concurrently with unions: a slot that has been reserved but not yet
// published reads as the sentinel, and the scan stops there — the caller
// resumes from the returned cursor on a later call. Edges never move once
// published, so successive reads observe a strictly growing prefix.
func (d *DSU) WitnessLogRead(cursor int, dst []uint64) (int, int) {
	if d.wlog == nil {
		return cursor, 0
	}
	limit := int(d.wcur.Load())
	if len(d.wlog) < limit {
		limit = len(d.wlog)
	}
	if m := cursor + len(dst); m < limit {
		limit = m
	}
	n := 0
	for i := cursor; i < limit; i++ {
		w := atomic.LoadUint64(&d.wlog[i])
		if w == NoWitness {
			break
		}
		dst[n] = w
		n++
	}
	return cursor + n, n
}

// jtbLess orders roots by (priority, id) for Union-JTB's randomized linking.
func (d *DSU) jtbLess(a, b uint32) bool {
	pa, pb := d.prio[a], d.prio[b]
	if pa != pb {
		return pa < pb
	}
	return a < b
}

func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
