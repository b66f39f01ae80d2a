package core

import (
	"sync"
	"testing"
	"time"

	"connectit/internal/graph"
)

// TestSyncVisibilityConcurrentSyncs is the regression test for the Sync
// visibility race: a Sync that drains shard buffers must register the
// drained batch in-flight before the buffers appear empty, or a concurrent
// Sync can observe empty buffers and a zero in-flight count and return
// while those updates are still unapplied.
//
// Each iteration buffers a fresh marker edge inside a large padding batch
// (the apply round takes tens of milliseconds), starts one Sync, and
// starts a second Sync a few milliseconds later — inside the first Sync's
// apply window, after its drain emptied the buffers. The second Sync began
// after the marker was accepted, so the marker must be visible when it
// returns. Buffered disciplines only — Type i never buffers.
func TestSyncVisibilityConcurrentSyncs(t *testing.T) {
	iters := 5
	pad := 1 << 19
	n := 1 << 15
	if testing.Short() {
		iters = 2
		pad = 1 << 17
	}
	// Markers live above padTop, which padding never touches, so an earlier
	// iteration's padding can never connect a later marker pair on its own.
	padTop := uint64(n - 1024)
	for _, spec := range []string{"sv", "lt;CRFA", "uf;rem-cas;naive;splice"} {
		t.Run(spec, func(t *testing.T) {
			// Epochs never self-seal (the per-shard buffer never reaches
			// EpochSize): every update sits in a shard buffer until a Sync
			// drains it.
			s := mustStream(t, n, spec, StreamOptions{EpochSize: pad, Shards: 4})
			violations := 0
			for i := 0; i < iters; i++ {
				u := uint32(padTop) + uint32(2*i)
				v := u + 1
				s.Update(u, v)
				// Padding makes the apply round long enough for the second
				// Sync to land inside it even under single-core scheduling
				// (the runtime preempts the applier within ~10ms).
				for j := 0; j < pad; j++ {
					h := graph.Hash64(uint64(i)<<20 | uint64(j))
					s.Update(uint32(h%padTop), uint32(graph.Hash64(h)%padTop))
				}
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					s.Sync()
				}()
				time.Sleep(5 * time.Millisecond)
				s.Sync()
				// (u, v) was accepted before this Sync began, so it must be
				// visible now.
				if !conn(s, u, v) {
					violations++
				}
				wg.Wait()
			}
			if violations != 0 {
				t.Errorf("%d of %d iterations: an update accepted before Sync began was invisible after Sync returned", violations, iters)
			}
		})
	}
}

// TestLabelsMonotoneUnderConcurrentUpdates hammers a Type i stream with
// concurrent producers while repeatedly taking Labels/NumComponents
// snapshots. Type i has no quiescence point, so the snapshot contract is
// monotone consistency: any two vertices a snapshot labels equal must be
// truly connected (checked against the oracle of all updates the test will
// ever issue), and the final snapshot after producers stop must agree with
// the oracle exactly — the old flatten-in-place snapshot could lose a
// racing union forever and fail that last check.
func TestLabelsMonotoneUnderConcurrentUpdates(t *testing.T) {
	const producers = 4
	n := 1 << 9
	perProducer := 8000
	snapshots := 200
	if testing.Short() {
		perProducer = 1500
		snapshots = 50
	}
	for _, spec := range []string{"uf;async;naive;split-one", "uf;rem-cas;halve;halve-one"} {
		t.Run(spec, func(t *testing.T) {
			s := mustStream(t, n, spec, StreamOptions{})
			final := newOracle(n)
			tapes := make([][]graph.Edge, producers)
			rng := uint64(31)
			for p := range tapes {
				tape := make([]graph.Edge, perProducer)
				for i := range tape {
					rng = graph.Hash64(rng)
					u := uint32(rng % uint64(n))
					rng = graph.Hash64(rng)
					v := uint32(rng % uint64(n))
					tape[i] = graph.Edge{U: u, V: v}
					final.union(u, v)
				}
				tapes[p] = tape
			}
			finalRoot := make([]uint32, n)
			for v := 0; v < n; v++ {
				finalRoot[v] = final.find(uint32(v))
			}

			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(tape []graph.Edge) {
					defer wg.Done()
					for _, e := range tape {
						s.Update(e.U, e.V)
					}
				}(tapes[p])
			}
			for k := 0; k < snapshots; k++ {
				labels := s.Labels()
				for v := 1; v < n; v++ {
					if labels[v] == labels[v-1] && finalRoot[v] != finalRoot[v-1] {
						t.Fatalf("snapshot %d: vertices %d and %d share label %d but are never connected",
							k, v-1, v, labels[v])
					}
				}
				s.NumComponents() // must also be safe mid-traffic
			}
			wg.Wait()

			// Quiescent now: the snapshot must match the oracle exactly. A
			// lost union (the flatten-in-place hazard) shows up here as too
			// many components.
			labels := s.Labels()
			classes := map[uint32]uint32{}
			for v := 0; v < n; v++ {
				if prev, ok := classes[labels[v]]; ok && prev != finalRoot[v] {
					t.Fatalf("vertex %d: label %d spans oracle components", v, labels[v])
				}
				classes[labels[v]] = finalRoot[v]
			}
			roots := map[uint32]bool{}
			for v := 0; v < n; v++ {
				roots[finalRoot[v]] = true
			}
			if len(classes) != len(roots) {
				t.Fatalf("final snapshot has %d components, oracle has %d (a concurrent union was lost)",
					len(classes), len(roots))
			}
		})
	}
}

// TestStatsQuiescentInvariant checks that once all producers have stopped
// and a final Sync has run, the accounting closes: every accepted update
// was either applied or filtered (nothing remains buffered and nothing was
// dropped on the floor).
func TestStatsQuiescentInvariant(t *testing.T) {
	const producers = 8
	n := 1 << 10
	perProducer := 3000
	if testing.Short() {
		perProducer = 500
	}
	for _, tc := range typeSpecs {
		t.Run(tc.spec, func(t *testing.T) {
			t.Parallel()
			s := mustStream(t, n, tc.spec, StreamOptions{EpochSize: 128, Shards: 4})
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					rng := uint64(p)*0x9e3779b97f4a7c15 + 7
					for i := 0; i < perProducer; i++ {
						rng = graph.Hash64(rng)
						u := uint32(rng % uint64(n))
						rng = graph.Hash64(rng)
						v := uint32(rng % uint64(n))
						s.Update(u, v)
						if i%101 == 0 {
							s.Sync() // Sync mid-traffic must not lose updates
						}
					}
				}(p)
			}
			wg.Wait()
			s.Sync()
			st := s.Stats()
			if want := uint64(producers * perProducer); st.Updates != want {
				t.Fatalf("updates = %d, want %d", st.Updates, want)
			}
			if st.Applied+st.Filtered != st.Updates {
				t.Fatalf("quiescent accounting leak: applied %d + filtered %d != updates %d (an update is stuck buffered or was lost)",
					st.Applied, st.Filtered, st.Updates)
			}
		})
	}
}
