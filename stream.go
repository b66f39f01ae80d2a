package connectit

import "connectit/internal/core"

// Stream maintains connectivity of a growing graph under edge insertions
// mixed with connectivity queries (§3.5). ProcessBatch is the paper's
// batch-incremental call (Algorithm 3). Update, UpdateBatch and Connected
// serve the same state to any number of goroutines at once: updates flow
// through a sharded, coalescing epoch pipeline (seal → queue → coalesce →
// round) scheduled per the compiled algorithm's StreamType (DESIGN.md §9).
// Intra-component edges are filtered: a Type i Update asks whether the
// endpoints are already joined, by comparing their parents and, where they
// differ, by the walk its union would start with, before it enters the
// close gate, and returns at once if they are; a
// sampling-based pre-filter drops them from buffered rounds before the
// union loop. Beyond point Connected lookups, Query opens
// a Query engine over the live spanning forest that every Type i and
// Type ii stream grows as updates arrive (DESIGN.md §12). Build one with
// NewStream or Solver.Stream.
type Stream = core.Stream

// StreamOptions tunes a Stream's sharding and epoch size; the zero value
// selects the defaults. Forest capture is not an option: it follows the
// stream type (Stream.Query).
type StreamOptions = core.StreamOptions

// ErrStreamClosed is the closed-stream error. This is the canonical
// contract for what survives Stream.Close:
//
//   - Update, UpdateBatch, ProcessBatch, and Connected return
//     ErrStreamClosed, and so does every query issued through a Query
//     engine obtained from Stream.Query — PathBetween, ComponentSize,
//     ComponentHistogram, and the rest all surface the same error once the
//     stream is closed.
//   - The read-only survivors are exactly Labels, NumComponents, Stats,
//     ForestLen, and Sync: they keep working after Close so callers can
//     inspect the final connectivity state.
var ErrStreamClosed = core.ErrStreamClosed

// StreamStats is a snapshot of a Stream's operation counters, including
// the apply pipeline's Epochs/Rounds/Coalesced trio (epochs-per-round is
// the coalescing win).
type StreamStats = core.StreamStats

// NewStream compiles cfg and opens a stream over n initially isolated
// vertices. Algorithms that cannot stream return the ErrUnsupported error
// Compile captures. It is a thin wrapper over Compile + Solver.Stream.
func NewStream(n int, cfg Config, opt ...StreamOptions) (*Stream, error) {
	s, err := Compile(cfg)
	if err != nil {
		return nil, err
	}
	return s.Stream(n, opt...)
}

// NewIncremental is NewStream with the default options.
//
// Deprecated: use NewStream, whose Stream.ProcessBatch is the same
// batch-incremental call. This shim remains only because bench/layers.go —
// frozen by the benchmark contract — is its last caller.
func NewIncremental(n int, cfg Config) (*Stream, error) { return NewStream(n, cfg) }

// Stream opens a stream over n initially isolated vertices running the
// compiled finish algorithm. At most one StreamOptions may be supplied;
// omitting it selects the defaults. Unlike the Solver itself, the returned
// Stream is safe for unrestricted concurrent use: it schedules updates and
// queries per the algorithm's StreamType.
func (s *Solver) Stream(n int, opt ...StreamOptions) (*Stream, error) {
	var o StreamOptions
	if len(opt) > 0 {
		o = opt[0]
	}
	return s.c.NewStream(n, o)
}

// StreamingAlgorithms enumerates every finish algorithm that supports
// batch-incremental execution, paired with its StreamType, in registry
// order.
func StreamingAlgorithms() []core.StreamingAlgorithm { return core.StreamingAlgorithms() }
