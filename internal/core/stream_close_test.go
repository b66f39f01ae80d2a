package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"connectit/internal/graph"
)

func TestCloseIdempotentAndSentinel(t *testing.T) {
	s := mustStream(t, 64, "uf;rem-cas;naive;split-one", StreamOptions{})
	if err := s.Update(1, 2); err != nil {
		t.Fatalf("Update before close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Update(3, 4); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("Update after Close: err = %v, want ErrStreamClosed", err)
	}
	if err := s.UpdateBatch([]graph.Edge{{U: 3, V: 4}}); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("UpdateBatch after Close: err = %v, want ErrStreamClosed", err)
	}
	if _, err := s.Connected(1, 2); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("Connected after Close: err = %v, want ErrStreamClosed", err)
	}
	// The terminal state stays queryable through the read-only surface.
	labels := s.Labels()
	if labels[1] != labels[2] {
		t.Fatal("pre-close union lost after Close")
	}
	if got := s.NumComponents(); got != 63 {
		t.Fatalf("NumComponents after Close = %d, want 63", got)
	}
}

// dsu is the sequential oracle for the accepted-edge set.
type dsu struct{ p []uint32 }

func newDSU(n int) *dsu {
	d := &dsu{p: make([]uint32, n)}
	for i := range d.p {
		d.p[i] = uint32(i)
	}
	return d
}

func (d *dsu) find(x uint32) uint32 {
	for d.p[x] != x {
		d.p[x] = d.p[d.p[x]]
		x = d.p[x]
	}
	return x
}

func (d *dsu) union(u, v uint32) { d.p[d.find(u)] = d.find(v) }

// TestCloseUnderTraffic closes every stream type while producers and
// queriers are mid-flight. Run under -race this is the server-grade
// shutdown check: concurrent Update/Connected after Close must return
// ErrStreamClosed, never race with the teardown, and every update acknowledged
// (nil error) before the close must be present in the final state.
func TestCloseUnderTraffic(t *testing.T) {
	const n = 512
	for _, tc := range typeSpecs {
		t.Run(tc.spec, func(t *testing.T) {
			s := mustStream(t, n, tc.spec, StreamOptions{EpochSize: 16})
			type edge struct{ u, v uint32 }
			accepted := make([][]edge, 8)
			var started, closedErrs atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := uint64(w)*0x9e3779b97f4a7c15 + 1
					for i := 0; i < 4000; i++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						u := uint32(rng % n)
						v := uint32((rng >> 32) % n)
						if i%5 == 4 {
							if _, err := s.Connected(u, v); err != nil {
								closedErrs.Add(1)
							}
							continue
						}
						if err := s.Update(u, v); err == nil {
							accepted[w] = append(accepted[w], edge{u, v})
						} else if !errors.Is(err, ErrStreamClosed) {
							t.Errorf("Update: unexpected error %v", err)
							return
						} else {
							closedErrs.Add(1)
						}
						started.Add(1)
					}
				}(w)
			}
			// Let traffic build, then close in the middle of it.
			for started.Load() < 2000 {
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close under traffic: %v", err)
			}
			wg.Wait()

			// Every acknowledged union must be visible in the final labels.
			oracle := newDSU(n)
			for _, batch := range accepted {
				for _, e := range batch {
					oracle.union(e.u, e.v)
				}
			}
			labels := s.Labels()
			for u := 1; u < n; u++ {
				want := oracle.find(uint32(u)) == oracle.find(uint32(u-1))
				got := labels[u] == labels[u-1]
				// The stream may connect more (edges acknowledged after the
				// oracle recorded them cannot happen — acceptance is the
				// record) but never less.
				if want && !got {
					t.Fatalf("accepted union %d~%d missing after Close", u-1, u)
				}
				if got && !want {
					t.Fatalf("vertices %d~%d connected without an accepted edge", u-1, u)
				}
			}
			_ = closedErrs.Load()
		})
	}
}

// TestConcurrentClose hammers Close from many goroutines; all must return
// nil and observe the fully-drained stream.
func TestConcurrentClose(t *testing.T) {
	s := mustStream(t, 128, "uf;rem-cas;naive;split-one", StreamOptions{})
	for i := uint32(0); i < 127; i++ {
		if err := s.Update(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
			if got := s.NumComponents(); got != 1 {
				t.Errorf("NumComponents observed mid/post Close = %d, want 1", got)
			}
		}()
	}
	wg.Wait()
}
