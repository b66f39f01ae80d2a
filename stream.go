package connectit

import (
	"connectit/internal/core"
	"connectit/internal/ingest"
)

// Stream is the concurrent streaming ingest engine: it accepts interleaved
// Update(u, v) and Connected(u, v) calls from arbitrarily many goroutines,
// internally sharding updates into epochs that flow through a coalescing
// apply pipeline (seal → queue → coalesce → round) scheduled per the
// compiled algorithm's StreamType (§3.5; DESIGN.md §9). Intra-component
// edges are filtered: a Type i union stops where its two walks meet, and a
// sampling-based pre-filter drops them from buffered rounds before the
// union loop. Build one with NewStream or Solver.Stream.
//
// Unlike Incremental's synchronous call-per-batch ProcessBatch, a Stream is
// the serving-path surface: producers and queriers drive it concurrently
// and the engine enforces each stream type's concurrency discipline
// internally. Beyond point Connected lookups, Stream.Query opens a Query
// engine over the live spanning forest that every Type i and Type ii
// stream grows as updates arrive (DESIGN.md §12).
type Stream = ingest.Stream

// StreamOptions tunes a Stream's sharding and epoch size; the zero value
// selects the defaults. Forest capture is not an option: it follows the
// stream type (Stream.Query).
type StreamOptions = ingest.Options

// ErrStreamClosed is the closed-stream error. This is the canonical
// contract for what survives Stream.Close:
//
//   - Update, UpdateBatch, and Connected return ErrStreamClosed, and so
//     does every query issued through a Query engine obtained from
//     Stream.Query — PathBetween, ComponentSize, ComponentHistogram, and
//     the rest all surface the same error once the stream is closed.
//   - The read-only survivors are exactly Labels, NumComponents, Stats,
//     ForestLen, and Sync: they keep working after Close so callers can
//     inspect the final connectivity state.
var ErrStreamClosed = ingest.ErrClosed

// StreamStats is a snapshot of a Stream's operation counters, including
// the apply pipeline's Epochs/Rounds/Coalesced trio (epochs-per-round is
// the coalescing win).
type StreamStats = ingest.Stats

// NewStream compiles cfg and opens a concurrent ingest stream over n
// initially isolated vertices. Algorithms that cannot stream return the
// ErrUnsupported error Compile captures. It is a thin wrapper over
// Compile + Solver.Stream.
func NewStream(n int, cfg Config, opt ...StreamOptions) (*Stream, error) {
	s, err := Compile(cfg)
	if err != nil {
		return nil, err
	}
	return s.Stream(n, opt...)
}

// Stream opens a concurrent ingest stream over n initially isolated
// vertices running the compiled finish algorithm. At most one StreamOptions
// may be supplied; omitting it selects the defaults. Unlike the Solver
// itself, the returned Stream is safe for unrestricted concurrent use: the
// engine schedules updates and queries per the algorithm's StreamType.
func (s *Solver) Stream(n int, opt ...StreamOptions) (*Stream, error) {
	inc, err := s.NewIncremental(n)
	if err != nil {
		return nil, err
	}
	var o ingest.Options
	if len(opt) > 0 {
		o = opt[0]
	}
	return ingest.New(inc, o), nil
}

// StreamingAlgorithms enumerates every finish algorithm that supports
// batch-incremental execution, paired with its StreamType, in registry
// order.
func StreamingAlgorithms() []core.StreamingAlgorithm { return core.StreamingAlgorithms() }
