package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"connectit/internal/graph"
)

// TestSlotIsWholeCacheLines pins the layout the accounting relies on: a
// slot that is not a whole number of 64-byte lines shares one with its
// neighbour, and two producers are back to bouncing it.
func TestSlotIsWholeCacheLines(t *testing.T) {
	if size := reflect.TypeOf(slot{}).Size(); size == 0 || size%64 != 0 {
		t.Fatalf("slot is %d bytes, want a whole multiple of 64", size)
	}
}

// TestStatsExactUnderConcurrency drives every stream type, through Update,
// UpdateBatch and ProcessBatch, from more goroutines than there are slots (Shards: 1 puts every token on one line;
// 3 leaves some shared, some not) and checks the derived counters are
// exact: slot choice is a cost matter only, never a correctness one.
func TestStatsExactUnderConcurrency(t *testing.T) {
	const (
		n         = 1 << 10
		producers = 6
		batch     = 16
	)
	updates, queries := 2048, 512 // per producer; updates is a multiple of 2*batch
	if testing.Short() {
		updates, queries = 512, 128
	}
	for _, tc := range typeSpecs {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.spec, shards), func(t *testing.T) {
				t.Parallel()
				s := mustStream(t, n, tc.spec, StreamOptions{EpochSize: 64, Shards: shards})
				var wg sync.WaitGroup
				for p := 0; p < producers; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						rng := uint64(p)*0x9e3779b97f4a7c15 + 3
						next := func() uint32 {
							rng = graph.Hash64(rng)
							return uint32(rng % n)
						}
						// Half the updates go one at a time, half in
						// groups that alternate between UpdateBatch and
						// ProcessBatch, with the queries spread between.
						group := make([]graph.Edge, 0, batch)
						for i := 0; i < updates/2; i++ {
							if err := s.Update(next(), next()); err != nil {
								t.Errorf("Update: %v", err)
								return
							}
							group = append(group, graph.Edge{U: next(), V: next()})
							if len(group) == batch {
								var err error
								if i%(2*batch) < batch {
									err = s.UpdateBatch(group)
								} else {
									_, err = s.ProcessBatch(group, [][2]uint32{{next(), next()}})
								}
								if err != nil {
									t.Errorf("UpdateBatch/ProcessBatch: %v", err)
									return
								}
								group = group[:0]
							}
							if i < queries {
								if _, err := s.Connected(next(), next()); err != nil {
									t.Errorf("Connected: %v", err)
									return
								}
							}
						}
					}(p)
				}
				wg.Wait()
				s.Sync()
				st := s.Stats()
				if want := uint64(producers * updates); st.Updates != want {
					t.Errorf("Updates = %d, want %d", st.Updates, want)
				}
				if st.Filtered+st.Applied != st.Updates {
					t.Errorf("Filtered %d + Applied %d != Updates %d", st.Filtered, st.Applied, st.Updates)
				}
				if got := s.tally().inFlight(); got != 0 {
					t.Errorf("%d updates in flight on a quiescent stream", got)
				}
			})
		}
	}
}

// TestStatsTypeIAppliedIsMerges: a Type i update is one union whose early
// exit is its filter, so Applied counts exactly the unions that merged two
// components. The re-sent edge below closes a 255-hop chain that a bounded
// probe in front of the union would not see across, counting it applied.
// Buffered types count the edges a round hands to the apply path, which
// bounds the merges from above.
func TestStatsTypeIAppliedIsMerges(t *testing.T) {
	const n = 256
	s := mustStream(t, n, "uf;async;naive;split-one", StreamOptions{})
	for v := n - 2; v >= 0; v-- {
		s.Update(uint32(v), uint32(v+1))
	}
	s.Update(n-1, 0)
	if st, merges := s.Stats(), uint64(n-s.NumComponents()); st.Applied != merges || st.Filtered != 1 {
		t.Fatalf("chain: Stats %+v, want Applied = n − #components = %d and the re-sent edge filtered", st, merges)
	}

	const (
		m         = 1 << 10
		producers = 4
		updates   = 1024 // per producer
	)
	for _, tc := range typeSpecs {
		t.Run(tc.spec, func(t *testing.T) {
			t.Parallel()
			s := mustStream(t, m, tc.spec, StreamOptions{EpochSize: 64})
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					rng := uint64(p)*0x9e3779b97f4a7c15 + 5
					for i := 0; i < updates; i++ {
						rng = graph.Hash64(rng)
						if err := s.Update(uint32(rng%m), uint32((rng>>32)%m)); err != nil {
							t.Errorf("Update: %v", err)
							return
						}
					}
				}(p)
			}
			wg.Wait()
			merges := uint64(m - s.NumComponents())
			st := s.Stats()
			if tc.want != TypeAsync {
				if st.Applied < merges {
					t.Errorf("Applied %d < n − #components = %d", st.Applied, merges)
				}
				return
			}
			if st.Applied != merges || uint64(s.ForestLen()) != merges {
				t.Errorf("Applied %d, ForestLen %d, want both n − #components = %d", st.Applied, s.ForestLen(), merges)
			}
		})
	}
}

// TestCloseGateRace races producers — Update, UpdateBatch and ProcessBatch
// calls — against Close on short-lived streams,
// so that Close lands inside the gate's check / enter / re-check window as
// often as possible. Every Update that returned nil must be in the final
// labels, a producer that has seen ErrStreamClosed must never be accepted again,
// and the gate must be empty once the producers have stopped.
func TestCloseGateRace(t *testing.T) {
	const (
		n         = 256
		producers = 4
	)
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	for _, tc := range typeSpecs {
		t.Run(tc.spec, func(t *testing.T) {
			t.Parallel()
			for round := 0; round < rounds; round++ {
				s := mustStream(t, n, tc.spec, StreamOptions{EpochSize: 8, Shards: 2})
				accepted := make([][]graph.Edge, producers)
				var wg sync.WaitGroup
				start := make(chan struct{})
				for p := 0; p < producers; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						rng := uint64(round*producers+p)*0x9e3779b97f4a7c15 + 11
						refused := false
						<-start
						for i := 0; i < 400; i++ {
							rng = graph.Hash64(rng)
							e := graph.Edge{U: uint32(rng % n), V: uint32((rng >> 32) % n)}
							var err error
							switch i % 4 {
							case 3:
								err = s.UpdateBatch([]graph.Edge{e})
							case 2:
								var res []bool
								res, err = s.ProcessBatch([]graph.Edge{e}, [][2]uint32{{e.U, e.V}})
								// A buffered round answers after its updates.
								if err == nil && tc.want != TypeAsync && !res[0] {
									t.Errorf("ProcessBatch did not see its own update")
									return
								}
							default:
								err = s.Update(e.U, e.V)
							}
							switch {
							case err == nil && refused:
								t.Errorf("update accepted after an earlier one returned ErrStreamClosed")
								return
							case err == nil:
								accepted[p] = append(accepted[p], e)
							case errors.Is(err, ErrStreamClosed):
								refused = true
							default:
								t.Errorf("unexpected error %v", err)
								return
							}
						}
					}(p)
				}
				close(start)
				// A different point of the producers' run each round.
				for i := 0; i < round%8; i++ {
					runtime.Gosched()
				}
				if err := s.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				// Close has returned, so the labels are final: an update
				// acknowledged from here on would be missing from them.
				labels := s.Labels()
				wg.Wait()
				// Only now: a refused straggler is in the gate for the
				// moment between its entry and its re-check.
				if got := s.tally().inFlight(); got != 0 {
					t.Fatalf("round %d: %d updates in flight after the producers stopped", round, got)
				}
				oracle := newDSU(n)
				var total uint64
				for _, edges := range accepted {
					total += uint64(len(edges))
					for _, e := range edges {
						oracle.union(e.U, e.V)
					}
				}
				if st := s.Stats(); st.Updates != total || st.Filtered+st.Applied != total {
					t.Fatalf("round %d: %d updates acknowledged, Stats %+v", round, total, st)
				}
				for u := uint32(1); u < n; u++ {
					want := oracle.find(u) == oracle.find(u-1)
					if got := labels[u] == labels[u-1]; got != want {
						t.Fatalf("round %d: %d~%d connected=%v in the labels Close left, acknowledged updates say %v",
							round, u-1, u, got, want)
					}
				}
			}
		})
	}
}

// TestClosePanickedUpdateDoesNotWedge: an update or query naming a vertex
// out of range panics in the caller, on every stream type, before it can
// reach a buffer, a lock or a pool worker. A panicked update has entered
// the gate; it must still leave it, or Close would wait for ever, and the
// round after the panics must still get every lock — a bad edge a buffered
// round applied used to panic inside it with roundMu held, and a Type iii
// query used to panic holding the phase read lock.
func TestClosePanickedUpdateDoesNotWedge(t *testing.T) {
	const n = 64
	for _, spec := range []string{"uf;rem-cas;naive;split-one", "sv", "uf;rem-cas;naive;splice"} {
		t.Run(spec, func(t *testing.T) {
			s := mustStream(t, n, spec, StreamOptions{EpochSize: 4})
			panicked := func(f func()) (did bool) {
				defer func() { did = recover() != nil }()
				f()
				return false
			}
			if !panicked(func() { s.Update(1, n+7) }) {
				t.Fatal("Update with a vertex out of range did not panic")
			}
			// Two edges of the batch land before the bad one; the fourth
			// never runs.
			batch := []graph.Edge{{U: 1, V: 2}, {U: 3, V: 3}, {U: 4, V: n + 7}, {U: 5, V: 6}}
			if !panicked(func() { s.UpdateBatch(batch) }) {
				t.Fatal("UpdateBatch with a vertex out of range did not panic")
			}
			// ProcessBatch checks the whole batch before it fans out, and
			// applies none of it: a bad edge at the end of a batch large
			// enough to reach the pool used to kill the process.
			big := make([]graph.Edge, 4096)
			for i := range big {
				big[i] = graph.Edge{U: uint32(i % 60), V: uint32(i%60 + 1)}
			}
			big[len(big)-1] = graph.Edge{U: n, V: 0}
			if !panicked(func() { s.ProcessBatch(big, nil) }) {
				t.Fatal("ProcessBatch with an update out of range did not panic")
			}
			if !panicked(func() { s.ProcessBatch([]graph.Edge{{U: 8, V: 9}}, [][2]uint32{{0, n}}) }) {
				t.Fatal("ProcessBatch with a query out of range did not panic")
			}
			if !panicked(func() { s.Connected(n+7, 1) }) {
				t.Fatal("Connected with a vertex out of range did not panic")
			}
			if got := s.tally().inFlight(); got != 0 {
				t.Fatalf("%d updates still in the gate after their calls panicked", got)
			}
			// A round after the panics, then Close, under a guard.
			closed := make(chan error, 1)
			go func() {
				s.UpdateBatch([]graph.Edge{{U: 10, V: 11}, {U: 12, V: 13}, {U: 14, V: 15}, {U: 16, V: 17}})
				closed <- s.Close()
			}()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatalf("Close: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("a round or Close wedged behind a call that panicked")
			}
			st := s.Stats()
			if st.Updates != 6 || st.Applied != 5 || st.Filtered != 1 {
				t.Fatalf("Stats after the panics = %+v, want the batch's first two edges and the last batch only", st)
			}
			if l := s.Labels(); l[1] != l[2] || l[10] != l[11] || l[8] == l[9] || l[4] == l[5] {
				t.Fatal("labels after the panics do not match the accepted updates")
			}
		})
	}
}
