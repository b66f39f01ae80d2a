package core

import (
	"sync"

	"connectit/internal/graph"
)

// Drive replays edges as a concurrent mixed workload against any streaming
// structure: producers goroutines split the stream by stride, each calling
// update per edge and interleaving uniform-random connected queries over
// [0, n) so that a mix fraction of all operations are queries (16.16
// fixed-point accounting). It returns the number of queries issued. Drive
// is the shared driver behind cmd/connectit -stream, the ingest experiment
// of cmd/experiments, and the mixed-ratio benchmarks.
func Drive(update func(u, v uint32), connected func(u, v uint32) bool,
	edges []graph.Edge, n, producers int, mix float64) uint64 {
	qPerOp := uint64(mix / (1 - mix) * 65536)
	counts := make([]uint64, producers)
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			var owed, q uint64
			for i := w; i < len(edges); i += producers {
				update(edges[i].U, edges[i].V)
				owed += qPerOp
				for ; owed >= 65536; owed -= 65536 {
					rng = rng*6364136223846793005 + 1442695040888963407
					connected(uint32(rng>>33%uint64(n)), uint32(rng%uint64(n)))
					q++
				}
			}
			counts[w] = q
		}(w)
	}
	wg.Wait()
	var total uint64
	for _, q := range counts {
		total += q
	}
	return total
}

// DriveStream is Drive against a Stream, adapting the error-returning
// Update/Connected lifecycle surface back to Drive's plain callbacks. The
// caller owns the stream's lifecycle, so close errors cannot occur while a
// drive is running and are discarded.
func DriveStream(s *Stream, edges []graph.Edge, n, producers int, mix float64) uint64 {
	return Drive(
		func(u, v uint32) { _ = s.Update(u, v) },
		func(u, v uint32) bool { c, _ := s.Connected(u, v); return c },
		edges, n, producers, mix)
}
