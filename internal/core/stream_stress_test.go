package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"connectit/internal/graph"
)

// oracle is a tiny sequential union-find used as the linearizability
// reference.
type oracle struct{ parent []uint32 }

func newOracle(n int) *oracle {
	o := &oracle{parent: make([]uint32, n)}
	for i := range o.parent {
		o.parent[i] = uint32(i)
	}
	return o
}

func (o *oracle) find(x uint32) uint32 {
	for o.parent[x] != x {
		o.parent[x] = o.parent[o.parent[x]]
		x = o.parent[x]
	}
	return x
}

func (o *oracle) union(u, v uint32) { o.parent[o.find(u)] = o.find(v) }

func (o *oracle) same(u, v uint32) bool { return o.find(u) == o.find(v) }

// TestStreamStress hammers a Stream with >= 8 concurrent producers mixing
// updates and queries on all three stream types and checks it against a
// sequential oracle:
//
//  1. No false positives: a query that returned true must hold in the
//     oracle of ALL updates the test will ever issue (connectivity only
//     grows toward that set, so any true not implied by it is corruption).
//  2. Type i per-producer linearizability: after a producer's Update(u, v)
//     returns, its own later Connected(u, v) must be true (updates apply
//     in place before returning).
//  3. Quiescent agreement: after Sync, the stream's labeling induces
//     exactly the oracle's partition over all issued updates.
func TestStreamStress(t *testing.T) {
	const (
		producers   = 8
		perProducer = 4000
	)
	n := 1 << 10
	if testing.Short() {
		n = 1 << 8
	}

	specs := []string{
		"uf;async;naive;split-one",   // Type i
		"uf;rem-cas;halve;halve-one", // Type i
		"sv",                         // Type ii
		"lt;CRFA",                    // Type ii
		"uf;rem-cas;naive;splice",    // Type iii
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			// Pre-generate each producer's operation tape so the final oracle
			// is known up front.
			type op struct {
				u, v  uint32
				query bool
			}
			tapes := make([][]op, producers)
			final := newOracle(n)
			rng := graph.Hash64(uint64(len(spec)))
			for p := range tapes {
				tape := make([]op, perProducer)
				for i := range tape {
					rng = graph.Hash64(rng)
					u := uint32(rng % uint64(n))
					rng = graph.Hash64(rng)
					v := uint32(rng % uint64(n))
					rng = graph.Hash64(rng)
					q := rng%10 < 4 // 60/40 update:query mix
					tape[i] = op{u: u, v: v, query: q}
					if !q {
						final.union(u, v)
					}
				}
				tapes[p] = tape
			}

			// Flatten the final oracle to a read-only root table: producer
			// goroutines share it, and oracle.find path-compresses.
			finalRoot := make([]uint32, n)
			for v := 0; v < n; v++ {
				finalRoot[v] = final.find(uint32(v))
			}

			s := mustStream(t, n, spec, StreamOptions{EpochSize: 256, Shards: 4})
			async := s.Type() == TypeAsync

			var falsePos atomic.Uint64
			var ownViolation atomic.Uint64
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(tape []op) {
					defer wg.Done()
					var own *oracle
					if async {
						own = newOracle(n)
					}
					for _, o := range tape {
						if o.query {
							if conn(s, o.u, o.v) && finalRoot[o.u] != finalRoot[o.v] {
								falsePos.Add(1)
							}
							continue
						}
						s.Update(o.u, o.v)
						if async {
							// Type i updates are visible at return: this
							// producer's own history must read back.
							own.union(o.u, o.v)
							if !conn(s, o.u, o.v) {
								ownViolation.Add(1)
							}
						}
					}
					if async {
						// Spot-check the producer's full local history.
						for i := 0; i < n; i += 7 {
							u, v := uint32(i), uint32((i*13+1)%n)
							if own.same(u, v) && !conn(s, u, v) {
								ownViolation.Add(1)
							}
						}
					}
				}(tapes[p])
			}
			wg.Wait()

			if got := falsePos.Load(); got != 0 {
				t.Errorf("%d queries reported connectivity the issued updates never imply", got)
			}
			if got := ownViolation.Load(); got != 0 {
				t.Errorf("%d own-history reads lost an applied update (Type i linearizability)", got)
			}

			// Quiescent agreement with the oracle, as a partition.
			s.Sync()
			labels := s.Labels()
			classes := map[uint32]uint32{} // stream label -> oracle root
			for v := 0; v < n; v++ {
				or := final.find(uint32(v))
				if prev, ok := classes[labels[v]]; ok && prev != or {
					t.Fatalf("vertex %d: stream label %d spans oracle components %d and %d", v, labels[v], prev, or)
				}
				classes[labels[v]] = or
			}
			roots := map[uint32]bool{}
			for v := 0; v < n; v++ {
				roots[final.find(uint32(v))] = true
			}
			if len(classes) != len(roots) {
				t.Fatalf("stream has %d components, oracle has %d", len(classes), len(roots))
			}
			if want := len(roots); s.NumComponents() != want {
				t.Fatalf("NumComponents = %d, oracle %d", s.NumComponents(), want)
			}
		})
	}
}

// TestStreamStressManyProducers runs a heavier sweep (16 producers, all
// disciplines plus option extremes) outside -short.
func TestStreamStressManyProducers(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy stress is skipped in -short")
	}
	const producers = 16
	n := 1 << 9
	opts := []StreamOptions{
		{},                               // defaults
		{EpochSize: 32, Shards: 1},       // tiny epochs, single shard
		{EpochSize: 1 << 14, Shards: 32}, // epochs never self-seal: Sync path
		{EpochSize: 1},                   // every update seals: most rounds, most coalescing
	}
	for _, spec := range []string{"uf;async;naive;split-one", "sv", "uf;rem-cas;naive;splice"} {
		for oi, opt := range opts {
			t.Run(fmt.Sprintf("%s/opt%d", spec, oi), func(t *testing.T) {
				s := mustStream(t, n, spec, opt)
				final := newOracle(n)
				edges := graph.RMATEdges(9, 4*n, 0.57, 0.19, 0.19, uint64(oi)+1)
				for _, e := range edges {
					final.union(e.U, e.V)
				}
				var wg sync.WaitGroup
				for p := 0; p < producers; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						for i := p; i < len(edges); i += producers {
							s.Update(edges[i].U, edges[i].V)
							if i%3 == 0 {
								conn(s, edges[i].V, uint32((i*31)%n))
							}
							if i%257 == 0 {
								s.Sync() // Sync must be safe mid-traffic
							}
						}
					}(p)
				}
				wg.Wait()
				s.Sync()
				want := 0
				for v := 0; v < n; v++ {
					if final.find(uint32(v)) == uint32(v) {
						want++
					}
				}
				if got := s.NumComponents(); got != want {
					t.Fatalf("NumComponents = %d, oracle %d", got, want)
				}
			})
		}
	}
}
