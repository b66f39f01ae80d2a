// Package query implements the composable connectivity query engine behind
// connectit.Query (DESIGN.md §12). It separates "what to compute" — path,
// component-size, histogram, and forest queries — from "how the labeling is
// produced": the same Engine answers over a live streaming spanning forest
// (pulled incrementally from a Source), a static forest computed offline
// (Algorithm 2), or a bare connectivity labeling when no forest exists.
//
// The engine maintains a union-by-min disjoint-set over the forest edges it
// has absorbed, so component labels are canonical minima — identical to the
// labels the solvers and streams report — plus a half-edge adjacency over
// the forest for breadth-first path reconstruction. All scratch (BFS
// stamps, queues, histogram bins) is retained across calls, and every
// public method is safe for concurrent use behind one mutex: queries are
// reads over an incrementally grown index, serialized cheaply relative to
// the traversals they perform.
package query

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"connectit/internal/graph"
	"connectit/internal/parallel"
)

// ErrNoForest is returned by path and forest queries on engines built from
// a bare labeling (no spanning forest behind them). The verdict is fixed at
// construction, mirroring the compile-time capability gating of the solver
// surface.
var ErrNoForest = errors.New("query: engine has no spanning forest (label-backed)")

// Source feeds a live forest into an Engine. The ingest engine's Stream is
// the canonical implementation.
type Source interface {
	// NumVertices is the vertex universe size.
	NumVertices() int
	// ForestPull appends forest edges captured since cursor to dst,
	// returning the advanced cursor and grown slice. Must be safe to call
	// concurrently with updates; published edges must never move.
	ForestPull(cursor int, dst []graph.Edge) (int, []graph.Edge)
	// Err reports the source's liveness: queries fail with this error once
	// it is non-nil (e.g. a closed stream).
	Err() error
}

// Bin is one histogram bucket: Count components of exactly Size vertices.
type Bin struct {
	Size  int `json:"size"`
	Count int `json:"count"`
}

// Histogram is a component-size histogram in increasing Size order.
type Histogram []Bin

// Stats is a snapshot of the engine's index.
type Stats struct {
	// ForestEdges is the number of forest edges absorbed into the index.
	ForestEdges int
	// Dropped counts pulled edges rejected because their endpoints were
	// already connected (always 0 when capture upholds the forest
	// invariant; surfaced for observability).
	Dropped int
	// Components is the current number of connected components.
	Components int
}

// noHalf is the empty half-edge list sentinel.
const noHalf = int32(-1)

// Engine answers connectivity queries over an incrementally maintained
// spanning forest (see the package comment). Construct with New (live
// source), NewStatic (offline forest), or NewLabelled (labeling only). A
// label-backed engine holds parent alone, plus size once a size query has
// built it: the forest, half-edge and BFS fields below stay nil, and every
// method that would read them returns pathErr first.
type Engine struct {
	mu  sync.Mutex
	src Source

	n       int
	cursor  int
	pathErr error // ErrNoForest for label-backed engines

	forest  []graph.Edge // accepted forest edges, index-stable
	pull    []graph.Edge // ForestPull scratch
	dropped int

	// Union-by-min over forest edges: parents strictly decrease, so every
	// root is its component's minimum and Find yields canonical labels.
	// size[r] counts the vertices of root r's component other than r, so a
	// zeroed array is the all-singletons state; maxSize counts them all.
	parent     []uint32
	size       []uint32
	components int
	maxRoot    uint32
	maxSize    uint32

	// Half-edge adjacency: forest edge i contributes half-edge 2i at U
	// (toward V) and 2i+1 at V (toward U).
	head   []int32
	nextHE []int32

	// BFS scratch: stamp[v] == epoch marks v visited in the current
	// traversal; via[v] is the half-edge that discovered v.
	stamp []uint32
	epoch uint32
	via   []int32
	queue []uint32

	// Histogram cache, valid while the forest length is unchanged.
	histAt int
	hist   Histogram
	sizes  []uint32 // histogram sort scratch
}

// New builds a live engine over src. Queries pull newly captured forest
// edges from the source before answering, so answers always reflect every
// update the source had published at call time.
func New(src Source) *Engine {
	e := newEngine(src.NumVertices())
	e.src = src
	return e
}

// NewStatic builds an engine over a fixed forest (the output of
// Solver.SpanningForest). The forest is absorbed at construction; edges
// whose endpoints repeat a component merge are dropped (Stats.Dropped).
func NewStatic(n int, forest []graph.Edge) *Engine {
	e := newEngine(n)
	for _, ed := range forest {
		e.addEdge(ed)
	}
	return e
}

// NewLabelled builds an engine from a connectivity labeling: labels[v] is
// v's component label, with labels[labels[v]] == labels[v] (the canonical
// star form every solver returns). Component, size, and histogram queries
// work; PathBetween and SpanningForest return ErrNoForest — there is no
// forest to walk. The labels slice is copied. A label outside [0, n), or a
// labeling not in star form, panics on the calling goroutine naming the
// lowest bad vertex; an out-of-range label is reported first.
//
// Construction is one parallel pass that copies the labels, counts the
// roots and checks the labeling; NumComponents, Component, Connected and
// Labels need nothing more. The component sizes are built on the first
// ComponentSize, LargestComponent or ComponentHistogram call. A
// label-backed engine never allocates the forest adjacency or the BFS
// scratch (DESIGN.md §12 "Building from labels").
func NewLabelled(labels []uint32) *Engine {
	n := len(labels)
	parent := make([]uint32, n)
	e := &Engine{n: n, pathErr: ErrNoForest, parent: parent, histAt: -1}

	// One pass copies a chunk, counts its roots and checks it (see
	// copyLabels). Only a chunk that fails the check is scanned again, for
	// its lowest bad vertex. The pool's workers have no recover, so the
	// panic comes after the loop.
	var roots, badRange, badStar atomic.Int64
	badRange.Store(int64(n))
	badStar.Store(int64(n))
	parallel.ForGrained(n, labelGrain, func(lo, hi int) {
		count, bad := copyLabels(parent[lo:hi], labels, lo)
		roots.Add(int64(count))
		if bad == 0 {
			return
		}
		for i := lo; i < hi; i++ {
			if int(labels[i]) >= n {
				storeMin(&badRange, i)
				return
			}
		}
		for i := lo; i < hi; i++ {
			if l := labels[i]; labels[l] != l {
				storeMin(&badStar, i)
				return
			}
		}
	})
	if i := int(badRange.Load()); i < n {
		panic(fmt.Sprintf("query: NewLabelled: labels[%d] = %d is out of range [0, %d)", i, parent[i], n))
	}
	if i := int(badStar.Load()); i < n {
		l := parent[i]
		panic(fmt.Sprintf("query: NewLabelled: labels[%d] = %d is not a root (labels[%d] = %d): not in star form", i, l, l, parent[l]))
	}
	e.components = int(roots.Load())
	return e
}

// copyLabels is NewLabelled's loop: it copies labels[lo:lo+len(dst)] into
// dst and returns the number of roots among them, and a word that is zero
// if every one of their labels l is in range and a root (labels[l] == l).
// The root count is branch-free, and the only branch, the range test, goes
// the same way on every valid labeling; the star test reads the caller's
// slice, which other chunks may not have copied yet. Inlined into the chunk
// closure, the loop keeps its accumulators on the stack, a store and a
// reload on every vertex; hence noinline.
//
//go:noinline
func copyLabels(dst, labels []uint32, lo int) (count, bad uint32) {
	src := labels[lo : lo+len(dst)]
	for i, l := range src {
		dst[i] = l
		count += b2u(l == uint32(lo+i))
		if int(l) < len(labels) {
			bad |= labels[l] ^ l
		} else {
			bad = 1
		}
	}
	return count, bad
}

// b2u is 1 for true and 0 for false, compiled without a branch.
func b2u(b bool) uint32 {
	var u uint32
	if b {
		u = 1
	}
	return u
}

// storeMin lowers a to i if i is smaller.
func storeMin(a *atomic.Int64, i int) {
	for {
		cur := a.Load()
		if int64(i) >= cur || a.CompareAndSwap(cur, int64(i)) {
			return
		}
	}
}

// labelSizes builds a label-backed engine's size array, maxSize and maxRoot
// on the first query that needs them; the engine never changes afterwards.
// Forest-backed engines keep size current from construction. Caller holds
// mu.
//
// One pass counts every non-root vertex into its root's size. Chunks share
// roots, so the adds are atomic — but a chunk batches them: a run of equal
// labels is counted in a register, and finished runs wait in a small
// direct-mapped table that is published once per eviction and once at
// chunk end. A lone "current run" is not enough: two giant components
// interleaved vertex by vertex would end a run, and issue a contended add,
// at every vertex. Roots are skipped: size counts a component without its
// root, so a singleton costs nothing. The first add to a root marks it in
// a bitmap, and the largest component is found among the marked roots
// alone; with none marked, every vertex is a singleton and the answer is
// vertex 0.
func (e *Engine) labelSizes() {
	if e.size != nil {
		return
	}
	n, parent := e.n, e.parent
	m := members{size: make([]uint32, n), grown: make([]uint64, (n+63)/64)}
	parallel.ForGrained(n, labelGrain, func(lo, hi int) {
		m.count(parent[lo:hi], lo)
	})

	// After the barrier, the largest of the grown roots wins. Packing
	// (size, ^root) makes the maximum the largest size and, among equals,
	// the smallest root, whatever the chunking.
	var best atomic.Uint64
	parallel.ForGrained(len(m.grown), labelGrain/64, func(lo, hi int) {
		var local uint64
		for w := lo; w < hi; w++ {
			for word := m.grown[w]; word != 0; word &= word - 1 {
				r := uint32(w<<6 + bits.TrailingZeros64(word))
				local = max(local, uint64(m.size[r])<<32|uint64(^r))
			}
		}
		for {
			cur := best.Load()
			if local <= cur || best.CompareAndSwap(cur, local) {
				break
			}
		}
	})
	if n > 0 {
		e.maxSize, e.maxRoot = 1, 0
		if p := best.Load(); p != 0 {
			e.maxSize, e.maxRoot = uint32(p>>32)+1, ^uint32(p)
		}
	}
	e.size = m.size
}

// members is what labelSizes' counting pass writes: size, and a bitmap of
// the roots it has added to.
type members struct {
	size  []uint32
	grown []uint64
}

// count is labelSizes' loop over one chunk, the labels of vertices lo,
// lo+1, ....
func (m members) count(chunk []uint32, lo int) {
	var keys, counts [pendingSlots]uint32
	run, runLen := uint32(lo), uint32(0)
	for i, l := range chunk {
		if l == uint32(lo+i) {
			continue
		}
		if l == run {
			runLen++
			continue
		}
		s := pendingSlot(run)
		if keys[s] != run && counts[s] != 0 {
			m.add(keys[s], counts[s])
			counts[s] = 0
		}
		keys[s], counts[s] = run, counts[s]+runLen
		run, runLen = l, 1
	}
	if runLen != 0 {
		m.add(run, runLen)
	}
	for s, c := range counts {
		if c != 0 {
			m.add(keys[s], c)
		}
	}
}

// add publishes c members of root; the add that takes root's size off zero
// marks root in the bitmap.
func (m members) add(root, c uint32) {
	if atomic.AddUint32(&m.size[root], c) == c {
		atomic.OrUint64(&m.grown[root>>6], 1<<(root&63))
	}
}

const (
	// labelGrain is the chunk of NewLabelled's and labelSizes' passes:
	// large enough that publishing a chunk's pending table (at most
	// pendingSlots+1 adds) is noise, small enough to balance a few hundred
	// chunks over the workers.
	labelGrain = 1 << 13
	// pendingSlots (2^pendingBits) is the size of a chunk's pending-count
	// table: 512 bytes of stack, enough that a handful of interleaved large
	// components each keep a slot.
	pendingBits  = 6
	pendingSlots = 1 << pendingBits
)

// pendingSlot maps a label to its pending-table slot (Fibonacci hashing, so
// roots that differ only in high or only in low bits still spread).
func pendingSlot(l uint32) uint32 { return l * 0x9e3779b1 >> (32 - pendingBits) }

func newEngine(n int) *Engine {
	e := &Engine{
		n:          n,
		components: n,
		parent:     make([]uint32, n),
		size:       make([]uint32, n),
		head:       make([]int32, n),
		stamp:      make([]uint32, n),
		via:        make([]int32, n),
		histAt:     -1,
	}
	for i := 0; i < n; i++ {
		e.parent[i] = uint32(i)
		e.head[i] = noHalf
	}
	if n > 0 {
		e.maxRoot, e.maxSize = 0, 1
	}
	return e
}

// find chases parent pointers with full path compression. Parents strictly
// decrease toward the component minimum, so the walk terminates and the
// root is the canonical label.
func (e *Engine) find(x uint32) uint32 {
	r := x
	for e.parent[r] != r {
		r = e.parent[r]
	}
	for e.parent[x] != x {
		e.parent[x], x = r, e.parent[x]
	}
	return r
}

// addEdge absorbs one captured forest edge into the index.
func (e *Engine) addEdge(ed graph.Edge) {
	ru, rv := e.find(ed.U), e.find(ed.V)
	if ru == rv {
		e.dropped++
		return
	}
	if rv < ru {
		ru, rv = rv, ru
	}
	e.parent[rv] = ru
	e.size[ru] += e.size[rv] + 1
	e.components--
	if s := e.size[ru] + 1; s > e.maxSize {
		e.maxSize, e.maxRoot = s, ru
	}
	i := int32(len(e.forest))
	e.forest = append(e.forest, ed)
	h0, h1 := 2*i, 2*i+1
	e.nextHE = append(e.nextHE, e.head[ed.U], e.head[ed.V])
	e.head[ed.U], e.head[ed.V] = h0, h1
}

// refresh pulls and absorbs newly captured forest edges. Caller holds mu.
func (e *Engine) refresh() error {
	if e.src == nil {
		return nil
	}
	if err := e.src.Err(); err != nil {
		return err
	}
	e.pull = e.pull[:0]
	e.cursor, e.pull = e.src.ForestPull(e.cursor, e.pull)
	for _, ed := range e.pull {
		e.addEdge(ed)
	}
	return nil
}

func (e *Engine) checkVertex(v uint32) error {
	if int(v) >= e.n {
		return fmt.Errorf("query: vertex %d out of range [0, %d)", v, e.n)
	}
	return nil
}

// NumVertices returns the vertex universe size.
func (e *Engine) NumVertices() int { return e.n }

// Refresh absorbs every forest edge the source has published, without
// answering a query. Useful before reading Stats.
func (e *Engine) Refresh() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.refresh()
}

// Stats snapshots the engine's index counters (no source pull).
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{ForestEdges: len(e.forest), Dropped: e.dropped, Components: e.components}
}

// Connected reports whether u and v are in the same component.
func (e *Engine) Connected(u, v uint32) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.checkVertex(u); err != nil {
		return false, err
	}
	if err := e.checkVertex(v); err != nil {
		return false, err
	}
	if err := e.refresh(); err != nil {
		return false, err
	}
	return e.find(u) == e.find(v), nil
}

// Component returns the canonical component label of v — the smallest
// vertex ID in v's component, matching the labels solvers and streams
// report.
func (e *Engine) Component(v uint32) (uint32, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.checkVertex(v); err != nil {
		return 0, err
	}
	if err := e.refresh(); err != nil {
		return 0, err
	}
	return e.find(v), nil
}

// ComponentSize returns the number of vertices in v's component.
func (e *Engine) ComponentSize(v uint32) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.checkVertex(v); err != nil {
		return 0, err
	}
	if err := e.refresh(); err != nil {
		return 0, err
	}
	e.labelSizes()
	return int(e.size[e.find(v)]) + 1, nil
}

// NumComponents returns the current number of connected components.
func (e *Engine) NumComponents() (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.refresh(); err != nil {
		return 0, err
	}
	return e.components, nil
}

// LargestComponent returns the canonical label and size of the largest
// component. Among components of equal largest size a label-backed engine
// reports the one with the smallest root; a forest-backed engine reports
// the one whose forest edges reached that size first.
func (e *Engine) LargestComponent() (uint32, int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.refresh(); err != nil {
		return 0, 0, err
	}
	if e.n == 0 {
		return 0, 0, nil
	}
	e.labelSizes()
	// maxRoot may have been absorbed into a smaller root of equal size;
	// normalize to the canonical label.
	return e.find(e.maxRoot), int(e.maxSize), nil
}

// Labels returns a fresh canonical connectivity labeling: labels[v] is the
// smallest vertex in v's component.
func (e *Engine) Labels() ([]uint32, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.refresh(); err != nil {
		return nil, err
	}
	out := make([]uint32, e.n)
	for i := range out {
		out[i] = e.find(uint32(i))
	}
	return out, nil
}

// ComponentHistogram returns the component-size histogram in increasing
// size order. The result is cached until the forest grows.
func (e *Engine) ComponentHistogram() (Histogram, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.refresh(); err != nil {
		return nil, err
	}
	if e.histAt != len(e.forest) {
		e.labelSizes()
		e.sizes = e.sizes[:0]
		for i := 0; i < e.n; i++ {
			if e.parent[i] == uint32(i) {
				e.sizes = append(e.sizes, e.size[i]+1)
			}
		}
		slices.Sort(e.sizes)
		e.hist = e.hist[:0]
		for i := 0; i < len(e.sizes); {
			j := i
			for j < len(e.sizes) && e.sizes[j] == e.sizes[i] {
				j++
			}
			e.hist = append(e.hist, Bin{Size: int(e.sizes[i]), Count: j - i})
			i = j
		}
		e.histAt = len(e.forest)
	}
	out := make(Histogram, len(e.hist))
	copy(out, e.hist)
	return out, nil
}

// SpanningForest returns a copy of the forest edges absorbed so far:
// exactly n − NumComponents() real graph edges spanning every component.
func (e *Engine) SpanningForest() ([]graph.Edge, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pathErr != nil {
		return nil, e.pathErr
	}
	if err := e.refresh(); err != nil {
		return nil, err
	}
	out := make([]graph.Edge, len(e.forest))
	copy(out, e.forest)
	return out, nil
}

// PathBetween returns a path of forest edges from u to v, oriented
// u-to-v, and whether the endpoints are connected. The path is simple and
// has at most ComponentSize(u) − 1 edges; it is a fresh slice. A
// connected pair always yields a path (u == v yields an empty one).
func (e *Engine) PathBetween(u, v uint32) ([]graph.Edge, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.checkVertex(u); err != nil {
		return nil, false, err
	}
	if err := e.checkVertex(v); err != nil {
		return nil, false, err
	}
	if e.pathErr != nil {
		return nil, false, e.pathErr
	}
	if err := e.refresh(); err != nil {
		return nil, false, err
	}
	if e.find(u) != e.find(v) {
		return nil, false, nil
	}
	if u == v {
		return []graph.Edge{}, true, nil
	}

	// Breadth-first search over the forest component (its size bounds the
	// work); via half-edges reconstruct the walk.
	e.epoch++
	if e.epoch == 0 { // stamp wraparound: invalidate everything once
		clear(e.stamp)
		e.epoch = 1
	}
	e.queue = e.queue[:0]
	e.stamp[u] = e.epoch
	e.via[u] = noHalf
	e.queue = append(e.queue, u)
	found := false
	for qi := 0; qi < len(e.queue) && !found; qi++ {
		x := e.queue[qi]
		for h := e.head[x]; h != noHalf; h = e.nextHE[h] {
			ed := e.forest[h/2]
			to := ed.V
			if h&1 == 1 {
				to = ed.U
			}
			if e.stamp[to] == e.epoch {
				continue
			}
			e.stamp[to] = e.epoch
			e.via[to] = h
			if to == v {
				found = true
				break
			}
			e.queue = append(e.queue, to)
		}
	}
	if !found {
		// Unreachable when the forest invariant holds (find said
		// connected); fail loudly rather than return a wrong answer.
		return nil, false, fmt.Errorf("query: forest is missing a path between %d and %d", u, v)
	}
	var path []graph.Edge
	for x := v; x != u; {
		h := e.via[x]
		ed := e.forest[h/2]
		from := ed.U
		if h&1 == 1 {
			from = ed.V
		}
		path = append(path, graph.Edge{U: from, V: x})
		x = from
	}
	slices.Reverse(path)
	return path, true, nil
}
