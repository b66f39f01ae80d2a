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
	"connectit/internal/testutil"
	"connectit/internal/unionfind"
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
// UpdateBatch and ProcessBatch, from six goroutines, and checks the derived
// counters are exact: line choice is a cost matter only, never a
// correctness one. The shards=1 runs also cut the slots array to one line,
// which puts every producer on it (enter masks the hash by the array's
// size); the shards=3 runs keep the full array and leave each producer
// where its stack hashes.
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
				if shards == 1 {
					s.slots = s.slots[:1]
				}
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

// TestUpdateJoinedSkipsGate: a Type i Update whose endpoints are already
// joined changes no set, so it returns before the close gate and books one
// filtered count; only an edge that can link enters. A stream compiled
// with Stats instruments every union, so there every Update enters and
// unions as before.
func TestUpdateJoinedSkipsGate(t *testing.T) {
	specs := []string{
		"uf;async;naive;split-one",
		"uf;rem-cas;split;split-one",
		"uf;rem-lock;naive;halve-one",
		"uf;early;halve;split-one",
		"uf;jtb;two-try;split-one",
	}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			s := mustStream(t, 16, spec, StreamOptions{})
			calls := uint64(0)
			step := func(u, v uint32, enters bool, filtered uint64) {
				t.Helper()
				before, st := s.tally().entered, s.Stats()
				if err := s.Update(u, v); err != nil {
					t.Fatalf("Update(%d, %d): %v", u, v, err)
				}
				calls++
				if entered := s.tally().entered != before; entered != enters {
					t.Fatalf("Update(%d, %d) entered the gate: %v, want %v", u, v, entered, enters)
				}
				if got := s.Stats().Filtered - st.Filtered; got != filtered {
					t.Fatalf("Update(%d, %d) raised Filtered by %d, want %d", u, v, got, filtered)
				}
			}
			step(1, 2, true, 0)  // links
			step(1, 2, false, 1) // repeated
			step(2, 1, false, 1) // reversed
			step(3, 3, false, 1) // self-loop
			step(2, 5, true, 0)  // links
			step(5, 1, false, 1) // joined through 2
			st := s.Stats()
			if st.Updates != calls || st.Filtered+st.Applied != calls || st.Applied != 2 {
				t.Fatalf("Stats %+v after %d calls, want Updates = Filtered + Applied = %d and Applied = 2", st, calls, calls)
			}
			if got := s.tally().inFlight(); got != 0 {
				t.Fatalf("%d updates in flight on a quiescent stream", got)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := s.Update(1, 2); !errors.Is(err, ErrStreamClosed) {
				t.Fatalf("a joined Update after Close returned %v, want ErrStreamClosed", err)
			}
		})
	}

	t.Run("stats", func(t *testing.T) {
		cfg, err := ParseConfig("none;uf;rem-cas;split;split-one")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Stats = new(unionfind.Stats)
		c, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := c.NewStream(16, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// A self-loop reaches no union with or without Stats, so it still
		// returns before the gate; every other edge enters.
		edges := []graph.Edge{{U: 1, V: 2}, {U: 1, V: 2}, {U: 2, V: 1}, {U: 3, V: 3}, {U: 2, V: 5}, {U: 5, V: 1}}
		want := uint64(0)
		for _, e := range edges {
			if err := s.Update(e.U, e.V); err != nil {
				t.Fatal(err)
			}
			if e.U != e.V {
				want++
			}
			if got := s.tally().entered; got != want {
				t.Fatalf("Update(%d, %d): the gate was entered %d times, want %d", e.U, e.V, got, want)
			}
		}
		if got := cfg.Stats.Unions(); got != 5 {
			t.Fatalf("Stats counted %d unions, want 5", got)
		}
		if st := s.Stats(); st.Updates != 6 || st.Filtered != 4 || st.Applied != 2 {
			t.Fatalf("Stats %+v, want 6 updates, 4 filtered, 2 applied", st)
		}
	})
}

// TestTypeIBatchesMatchBFS feeds Type i streams through UpdateBatch and
// ProcessBatch from several goroutines at once: the batch paths, whose
// unions and queries compare the endpoints' parents before any walk. Every
// edge is sent twice, the second time reversed. A query asked beside the
// updates may miss an edge not yet applied, but never answers true for a
// pair the whole edge list leaves apart, and always answers true for the
// edges its own producer's last UpdateBatch applied; once every update has
// returned, the answers and the labels equal the BFS oracle's. Stats
// counts merges exactly: Applied == n − components and Filtered == calls −
// Applied.
func TestTypeIBatchesMatchBFS(t *testing.T) {
	const (
		n         = 1 << 11
		producers = 4
		batch     = 64
		queries   = 32 // random pairs per ProcessBatch
	)
	specs := []string{
		"uf;async;naive;split-one",
		"uf;rem-cas;split;split-one",
		"uf;rem-lock;naive;halve-one",
		"uf;early;halve;split-one",
		"uf;jtb;two-try;split-one",
	}
	g := graph.ErdosRenyi(n, n, 13)
	want := testutil.Components(g)
	edges := g.Edges()
	rng := uint64(17)
	for i := len(edges) - 1; i > 0; i-- {
		rng = graph.Hash64(rng)
		j := int(rng % uint64(i+1))
		edges[i], edges[j] = edges[j], edges[i]
	}
	for i := range len(edges) {
		edges = append(edges, graph.Edge{U: edges[i].V, V: edges[i].U})
	}
	calls := uint64(len(edges))
	merges := uint64(n - testutil.NumComponents(want))

	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			s := mustStream(t, n, spec, StreamOptions{})
			if s.Type() != TypeAsync {
				t.Fatalf("stream type %v, want Type i", s.Type())
			}
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					rng := uint64(p)*0x9e3779b97f4a7c15 + 7
					var last []graph.Edge // applied by this producer's last UpdateBatch
					for k, lo := 0, p*batch; lo < len(edges); k, lo = k+1, lo+producers*batch {
						chunk := edges[lo:min(lo+batch, len(edges))]
						if k%2 == 0 {
							if err := s.UpdateBatch(chunk); err != nil {
								t.Errorf("UpdateBatch: %v", err)
								return
							}
							last = chunk
							continue
						}
						qs := make([][2]uint32, 0, len(last)+queries)
						for _, e := range last {
							qs = append(qs, [2]uint32{e.U, e.V})
						}
						for i := 0; i < queries; i++ {
							rng = graph.Hash64(rng)
							qs = append(qs, [2]uint32{uint32(rng % n), uint32((rng >> 32) % n)})
						}
						got, err := s.ProcessBatch(chunk, qs)
						if err != nil {
							t.Errorf("ProcessBatch: %v", err)
							return
						}
						for i, q := range qs {
							if i < len(last) && !got[i] {
								t.Errorf("ProcessBatch: (%d, %d) of an applied batch answered false", q[0], q[1])
								return
							}
							if got[i] && want[q[0]] != want[q[1]] {
								t.Errorf("ProcessBatch: (%d, %d) answered true, BFS says apart", q[0], q[1])
								return
							}
						}
					}
				}(p)
			}
			wg.Wait()

			// Quiescent: every answer is the oracle's, from several
			// goroutines at once.
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					rng := uint64(p)*0x9e3779b97f4a7c15 + 11
					qs := make([][2]uint32, 4*batch)
					for i := range qs {
						rng = graph.Hash64(rng)
						u := uint32(rng % n)
						// Half the pairs are a vertex and its own label,
						// which are joined unless the vertex is alone.
						v := want[u]
						if i%2 == 1 {
							v = uint32((rng >> 32) % n)
						}
						qs[i] = [2]uint32{u, v}
					}
					got, err := s.ProcessBatch(nil, qs)
					if err != nil {
						t.Errorf("ProcessBatch: %v", err)
						return
					}
					for i, q := range qs {
						if w := want[q[0]] == want[q[1]]; got[i] != w {
							t.Errorf("ProcessBatch at quiescence: (%d, %d) = %v, BFS says %v", q[0], q[1], got[i], w)
							return
						}
					}
				}(p)
			}
			wg.Wait()
			testutil.CheckPartition(t, spec, s.Labels(), want)

			st := s.Stats()
			if st.Updates != calls || st.Applied != merges || st.Filtered != calls-merges {
				t.Fatalf("Stats %+v after %d calls, want Updates = %d, Applied = n − components = %d, Filtered = %d",
					st, calls, calls, merges, calls-merges)
			}
		})
	}
}
