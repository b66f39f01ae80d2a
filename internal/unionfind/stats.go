package unionfind

import (
	"sync/atomic"

	"connectit/internal/concurrent"
)

// Stats collects the path-length instrumentation the paper uses to analyze
// union-find variants (§4.1.1): the Total Path Length (TPL) summed over all
// operations, the Max Path Length (MPL) observed by any single operation,
// and the number of unions issued. Memory operations (parent-array
// loads/CASes) are proportional to path steps, so TPL doubles as the
// paper's memory-traffic proxy (DESIGN.md §2).
//
// Counters are sharded across padded cache lines to keep the
// instrumentation overhead in the paper's reported 10-20% range rather than
// serializing all workers on one contended line. All methods are safe for
// concurrent use and safe on a nil receiver, so instrumentation can be
// compiled in unconditionally and enabled per run.
type Stats struct {
	shards [statsShards]statsShard
	mpl    atomic.Uint64
}

// statsShards is a power of two covering typical core counts.
const (
	statsShardBits = 6
	statsShards    = 1 << statsShardBits
)

// statsShard occupies its own cache line.
type statsShard struct {
	tpl    atomic.Uint64
	unions atomic.Uint64
	_      [48]byte
}

// line is the caller's counter line, picked by its stack address
// (concurrent.StackHint) as core.Stream's close gate picks its accounting
// line: a worker goroutine writes one line, so workers do not bounce lines
// between them, however skewed the vertices they touch.
func (s *Stats) line() *statsShard {
	return &s.shards[concurrent.StackHint()>>(64-statsShardBits)]
}

// observe records a completed path traversal of the given length.
func (s *Stats) observe(steps int) {
	if s == nil || steps == 0 {
		return
	}
	s.line().tpl.Add(uint64(steps))
	for {
		cur := s.mpl.Load()
		if uint64(steps) <= cur {
			return
		}
		if s.mpl.CompareAndSwap(cur, uint64(steps)) {
			return
		}
	}
}

func (s *Stats) addUnion() {
	if s != nil {
		s.line().unions.Add(1)
	}
}

// TotalPathLength returns the TPL.
func (s *Stats) TotalPathLength() uint64 {
	if s == nil {
		return 0
	}
	var sum uint64
	for i := range s.shards {
		sum += s.shards[i].tpl.Load()
	}
	return sum
}

// MaxPathLength returns the MPL.
func (s *Stats) MaxPathLength() uint64 {
	if s == nil {
		return 0
	}
	return s.mpl.Load()
}

// Unions returns the number of union operations issued.
func (s *Stats) Unions() uint64 {
	if s == nil {
		return 0
	}
	var sum uint64
	for i := range s.shards {
		sum += s.shards[i].unions.Load()
	}
	return sum
}

// Reset clears all counters.
func (s *Stats) Reset() {
	if s == nil {
		return
	}
	for i := range s.shards {
		s.shards[i].tpl.Store(0)
		s.shards[i].unions.Store(0)
	}
	s.mpl.Store(0)
}
