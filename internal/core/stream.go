package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"connectit/internal/concurrent"
	"connectit/internal/graph"
	"connectit/internal/liutarjan"
	"connectit/internal/parallel"
	"connectit/internal/shiloachvishkin"
	"connectit/internal/unionfind"
)

// StreamType classifies how a streaming algorithm processes a batch (§3.5).
type StreamType int

// The streaming algorithm types of §3.5.
const (
	// TypeAsync (Type i): union-find variants other than Rem+SpliceAtomic.
	// Updates and queries in a batch run fully concurrently; all operations
	// are linearizable and finds are wait-free.
	TypeAsync StreamType = iota
	// TypeSynchronous (Type ii): Shiloach-Vishkin and RootUp Liu-Tarjan.
	// Updates are applied synchronously in rounds; queries are wait-free.
	TypeSynchronous
	// TypePhased (Type iii): Rem's algorithms with SpliceAtomic. Updates
	// and queries are phase-separated by a barrier (Theorem 3).
	TypePhased
)

func (t StreamType) String() string {
	switch t {
	case TypeAsync:
		return "type-i-async"
	case TypeSynchronous:
		return "type-ii-synchronous"
	case TypePhased:
		return "type-iii-phased"
	}
	return fmt.Sprintf("StreamType(%d)", int(t))
}

// Incremental maintains connectivity of a growing graph under batches of
// edge insertions mixed with connectivity queries (the parallel
// batch-incremental setting, §3.5 / Algorithm 3).
type Incremental struct {
	kind   FinishKind
	stype  StreamType
	dsu    *unionfind.DSU
	parent []uint32
	n      int

	// Streaming spanning-forest capture (DESIGN.md §12), decided by the
	// stream type. Type (i) unions append their witness edges to the
	// union-find witness log under the existing atomic discipline; Type (ii)
	// applies every batch with the witness-capturing edge runners, whose
	// round-reused closures and scratch survive across batches, and merges
	// each batch's edges into fbuf at the round barrier. Type (iii) never
	// captures: forestErr is the compile-time ForestSupport verdict.
	forestErr error
	fmu       sync.Mutex
	fbuf      []graph.Edge // merged Type (ii) forest, guarded by fmu
	fscratch  []graph.Edge // per-batch capture scratch (capacity retained)
	svForest  *shiloachvishkin.EdgeForestRunner
	ltForest  *liutarjan.ForestEdgeRunner
}

// NewIncremental creates a streaming connectivity structure over n vertices
// (initially edgeless) configured by cfg.Algorithm. Stergiou,
// Label-Propagation, and non-RootUp Liu-Tarjan variants do not support
// streaming (their updates relabel non-roots, breaking wait-free root
// queries) and return ErrUnsupported. It is a convenience wrapper that
// compiles cfg; repeated construction should Compile once and call
// Compiled.NewIncremental.
func NewIncremental(n int, cfg Config) (*Incremental, error) {
	c, err := Compile(cfg)
	if err != nil {
		return nil, err
	}
	return c.NewIncremental(n)
}

// Type reports the streaming classification of the configured algorithm.
func (inc *Incremental) Type() StreamType { return inc.stype }

// Kind reports the finish family of the configured algorithm.
func (inc *Incremental) Kind() FinishKind { return inc.kind }

// Len returns the number of vertices.
func (inc *Incremental) Len() int { return inc.n }

// ProcessBatch ingests a batch of edge insertions and answers the batch's
// connectivity queries, returning one result per query. Per §3.5, Type (i)
// algorithms run updates and queries fully concurrently; Type (ii) and
// Type (iii) apply updates first and then answer queries.
func (inc *Incremental) ProcessBatch(updates []graph.Edge, queries [][2]uint32) []bool {
	results := make([]bool, len(queries))
	switch inc.stype {
	case TypeAsync:
		total := len(updates) + len(queries)
		parallel.ForGrained(total, 256, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if i < len(updates) {
					inc.dsu.Union(updates[i].U, updates[i].V)
				} else {
					q := queries[i-len(updates)]
					results[i-len(updates)] = inc.dsu.SameSet(q[0], q[1])
				}
			}
		})
	case TypePhased:
		inc.ApplyBatch(updates)
		parallel.ForGrained(len(queries), 256, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				results[i] = inc.dsu.SameSet(queries[i][0], queries[i][1])
			}
		})
	case TypeSynchronous:
		inc.ApplyBatch(updates)
		parallel.ForGrained(len(queries), 256, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				results[i] = inc.Connected(queries[i][0], queries[i][1])
			}
		})
	}
	return results
}

// ApplyBatch ingests a batch of edge insertions without answering queries.
// It is ProcessBatch's update half, exposed for the ingest engine
// (internal/ingest), which overlaps its own queries with the batch according
// to the stream type. Concurrent ApplyBatch calls are permitted only for
// TypeAsync; TypeSynchronous and TypePhased appliers must be serialized by
// the caller (and TypePhased additionally barriered against queries).
//
// The batch goes straight to the union loop and is never modified.
// Duplicate edges, either orientation of one edge, and self-loops are
// harmless: unions are idempotent, so a repeat finds its endpoints already
// joined. Nothing is deduplicated first (the paper's Algorithm 3
// semisort), because the ingest pre-filter already drops 58 % of the first
// 1 Mi updates and 90 % of all 5 Mi of a shuffled RMAT(19) stream, and
// across 60 such streams at 2 and 8 producers, some sending every edge
// three times, a sampling duplicate-rate estimator found 1 batch worth
// sorting under the default coalesce bound.
func (inc *Incremental) ApplyBatch(updates []graph.Edge) {
	if len(updates) == 0 {
		return
	}
	switch inc.stype {
	case TypeAsync, TypePhased:
		// A Type (i) DSU logs each union's witness; the Type (iii) DSU has
		// no log, so the same call records nothing.
		parallel.ForGrained(len(updates), 256, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				inc.dsu.Union(updates[i].U, updates[i].V)
			}
		})
	case TypeSynchronous:
		inc.applySynchronous(updates)
	}
}

// applySynchronous is the Type (ii) apply path: the family's
// witness-capturing edge runner executes the synchronous rounds into the
// retained scratch, publishing parent atomically for the wait-free queries
// chasing it, and the batch's forest edges merge into fbuf at the round
// barrier — the appliers are caller-serialized, so the only synchronization
// added is the buffer mutex taken once per batch, off the per-edge hot path.
func (inc *Incremental) applySynchronous(updates []graph.Edge) {
	var out []graph.Edge
	if inc.svForest != nil {
		_, out = inc.svForest.Run(updates, inc.parent, inc.fscratch[:0])
	} else {
		_, out = inc.ltForest.Run(updates, inc.parent, nil, inc.fscratch[:0])
	}
	inc.fscratch = out
	if len(out) > 0 {
		inc.fmu.Lock()
		inc.fbuf = append(inc.fbuf, out...)
		inc.fmu.Unlock()
	}
}

// Update applies a single edge insertion and reports whether it merged two
// components; false means u and v were already connected. For TypeAsync and
// TypePhased it is one concurrent union, whose early exit is the answer (for
// TypePhased the caller owns the phase barrier). TypeSynchronous callers
// should batch instead — a single-edge synchronous round costs O(n) — so
// Update answers with a Connected check and runs ApplyBatch of one only for
// an edge that joins two components.
func (inc *Incremental) Update(u, v uint32) bool {
	if inc.dsu != nil {
		return inc.dsu.Union(u, v)
	}
	if inc.Connected(u, v) {
		return false
	}
	inc.ApplyBatch([]graph.Edge{{U: u, V: v}})
	return true
}

// Probe is a read-only bounded connectivity probe (unionfind.ProbeSame):
// true means u and v are definitely connected, false carries no guarantee.
// It is safe concurrently with updates of every stream type and is the
// sampling probe behind the ingest engine's pre-filter of buffered rounds.
func (inc *Incremental) Probe(u, v uint32, budget int) bool {
	parent := inc.parent
	if inc.dsu != nil {
		parent = inc.dsu.Parents()
	}
	return unionfind.ProbeSame(parent, u, v, budget)
}

// Connected answers a single connectivity query. It is wait-free for Type
// (i) and (ii) algorithms; for Type (iii) it must not run concurrently with
// updates (phase-concurrency, Theorem 3).
func (inc *Incremental) Connected(u, v uint32) bool {
	if inc.dsu != nil {
		return inc.dsu.SameSet(u, v)
	}
	ru, rv := chaseRoot(inc.parent, u), chaseRoot(inc.parent, v)
	for ru != rv {
		pru := atomic.LoadUint32(&inc.parent[ru])
		prv := atomic.LoadUint32(&inc.parent[rv])
		if pru == ru && prv == rv {
			return false
		}
		ru, rv = chaseRoot(inc.parent, pru), chaseRoot(inc.parent, prv)
	}
	return true
}

func chaseRoot(parent []uint32, x uint32) uint32 {
	for {
		p := atomic.LoadUint32(&parent[x])
		if p == x {
			return x
		}
		x = p
	}
}

// Labels returns the current connectivity labeling by read-only parallel
// root chasing: every vertex is labeled with its current root and the
// parent array is never written.
//
// Called quiescently (no concurrent updates) the snapshot is exact.
// Called concurrently with updates it is monotone-consistent: equal labels
// witness real connectivity (a label is reached by following live parent
// pointers, which never leave a component), while unequal labels carry no
// guarantee — an update racing the scan may or may not be reflected, and
// a racing union can re-hook a component's root between two of its
// members' chases, labeling them differently. The previous implementation
// flattened the DSU in place for the snapshot, and a flattening store
// racing a union CAS could overwrite the union's hook — silently losing an
// accepted update forever; chasing without writing removes that hazard
// (exercised by ingest's TestLabelsMonotoneUnderConcurrentUpdates).
func (inc *Incremental) Labels() []uint32 {
	parent := inc.parent
	if inc.dsu != nil {
		parent = inc.dsu.Parents()
	}
	out := make([]uint32, inc.n)
	parallel.For(inc.n, func(i int) { out[i] = chaseRoot(parent, uint32(i)) })
	return out
}

// NumComponents counts the current number of components, under Labels'
// snapshot semantics.
func (inc *Incremental) NumComponents() int {
	labels := inc.Labels()
	return int(parallel.Count(len(labels), func(i int) bool {
		return labels[i] == uint32(i)
	}))
}

// ForestErr reports whether this stream maintains a live spanning forest:
// nil for Types (i) and (ii), which always capture, and for Type (iii) the
// compile-time ForestSupport verdict, an error wrapping ErrUnsupported.
// Query construction gates on it (the fail-at-construction contract
// mirroring Compile).
func (inc *Incremental) ForestErr() error { return inc.forestErr }

// ForestLen reports how many forest edges have been captured so far (0 for
// a stream that does not capture). The value is exact at quiescence and a
// momentary snapshot under concurrent updates (Type (i) counts reserved log
// slots, so it may briefly exceed what ForestPull can observe).
func (inc *Incremental) ForestLen() int {
	if inc.forestErr != nil {
		return 0
	}
	if inc.dsu != nil {
		return inc.dsu.WitnessLogLen()
	}
	inc.fmu.Lock()
	n := len(inc.fbuf)
	inc.fmu.Unlock()
	return n
}

// ForestPull appends the forest edges captured since cursor to dst and
// returns the advanced cursor with the grown slice. Cursors start at 0 and
// are advanced monotonically; published edges never move, so successive
// pulls observe a strictly growing forest prefix. Safe concurrently with
// updates of the capturing stream types: Type (i) reads the union-find
// witness log wait-free (stopping at the first reserved-but-unpublished
// slot), Type (ii) copies the round-merged buffer under its mutex.
func (inc *Incremental) ForestPull(cursor int, dst []graph.Edge) (int, []graph.Edge) {
	if inc.forestErr != nil {
		return cursor, dst
	}
	if inc.dsu != nil {
		var buf [256]uint64
		for {
			next, k := inc.dsu.WitnessLogRead(cursor, buf[:])
			for i := 0; i < k; i++ {
				u, v := concurrent.Unpack(buf[i])
				dst = append(dst, graph.Edge{U: u, V: v})
			}
			cursor = next
			if k < len(buf) {
				return cursor, dst
			}
		}
	}
	inc.fmu.Lock()
	if cursor < len(inc.fbuf) {
		dst = append(dst, inc.fbuf[cursor:]...)
		cursor = len(inc.fbuf)
	}
	inc.fmu.Unlock()
	return cursor, dst
}
