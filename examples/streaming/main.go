// Streaming connectivity: many producer goroutines push a live edge stream
// into the concurrent ingest engine while queriers interleave wait-free
// connectivity reads — the paper's batch-incremental setting (§3.5, §4.4)
// served the way a production ingest tier would drive it. Mirrors an
// insertion-heavy social feed: follower edges arrive concurrently, and the
// product asks "are these two users connected?" while the stream is live.
package main

import (
	"fmt"
	"sync"
	"time"

	"connectit"
)

func main() {
	const scale = 20
	const producers = 8
	n := 1 << scale
	stream := connectit.RMATEdges(scale, 10*n, 3)
	fmt.Printf("stream: %d vertices, %d edge insertions, %d producers\n", n, len(stream), producers)

	// Compile the finish algorithm once; the solver's capabilities say up
	// front whether (and how) it streams.
	solver, err := connectit.Compile(connectit.Config{
		Algorithm: connectit.MustParseAlgorithm("uf;rem-cas;naive;split-one"),
	})
	if err != nil {
		panic(err)
	}
	if caps := solver.Capabilities(); !caps.Streaming {
		panic("algorithm does not stream")
	}
	st, err := solver.Stream(n)
	if err != nil {
		panic(err)
	}
	fmt.Println("streaming type:", st.Type())

	// Producers split the stream; a querier polls the engine concurrently
	// for the moment the two "users" become connected.
	target := [2]uint32{0, uint32(n - 1)}
	start := time.Now()
	var connectedAt time.Duration
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if same, _ := st.Connected(target[0], target[1]); same {
				connectedAt = time.Since(start)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(stream); i += producers {
				st.Update(stream[i].U, stream[i].V)
			}
		}(w)
	}
	wg.Wait()
	st.Sync()
	elapsed := time.Since(start)
	close(stop)
	<-done
	same, _ := st.Connected(target[0], target[1])
	if connectedAt == 0 && same {
		// Connected only by the final leftover batch, after the querier quit.
		connectedAt = elapsed
	}

	stats := st.Stats()
	fmt.Printf("ingested %d updates in %v (%.1fM updates/sec across %d producers)\n",
		stats.Updates, elapsed, float64(stats.Updates)/elapsed.Seconds()/1e6, producers)
	fmt.Printf("%d updates merged two components; %d joined nothing (%.1f%%)\n",
		stats.Applied, stats.Filtered, 100*float64(stats.Filtered)/float64(stats.Updates))
	if connectedAt > 0 {
		fmt.Printf("vertices %d and %d connected after %v of stream time\n", target[0], target[1], connectedAt)
	}
	fmt.Println("final components:", st.NumComponents())
}
