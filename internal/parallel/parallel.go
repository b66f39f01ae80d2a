// Package parallel implements the flat parallel primitives that ConnectIt's
// algorithms are built on: dynamically scheduled parallel for loops,
// reductions, prefix sums, filters, and histograms.
//
// The paper uses a Cilk-style work-stealing scheduler. This package runs
// every loop on a persistent fork-join pool (pool.go, DESIGN.md §2): P-1
// long-lived workers parked on an epoch barrier, woken per call with zero
// goroutine spawns and zero steady-state allocations, claiming chunks from
// per-worker ranges with randomized stealing. For the flat, irregular loops
// used by connectivity algorithms this provides the same load balance as
// work stealing while keeping per-call overhead near a function call.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultGrain is the default number of iterations claimed by a worker at a
// time. It is large enough to amortize the claim and small enough to balance
// skewed per-iteration work (e.g. high-degree vertices).
const DefaultGrain = 1024

// Procs returns the number of workers parallel loops will use.
func Procs() int { return runtime.GOMAXPROCS(0) }

// For runs body(i) for every i in [0, n) in parallel.
func For(n int, body func(i int)) {
	forGrained(n, DefaultGrain, 0, nil, body, nil)
}

// ForGrained runs body over disjoint chunks [lo, hi) covering [0, n),
// claiming chunks of size grain dynamically. It runs sequentially when the
// range is a single grain, only one P is available, or the pool is busy
// (nested parallel calls always run their inner loop inline).
func ForGrained(n, grain int, body func(lo, hi int)) {
	forGrained(n, grain, 0, body, nil, nil)
}

// ForWorkerSized is ForGrained with worker identity: body receives the
// claiming Worker, whose ID is a dense index below maxID. One worker
// executes its chunks sequentially, so per-worker state in arrays indexed
// by Worker.ID needs no synchronization within a call. Size those arrays
// with Width(n, grain) and pass the same value as maxID: the job uses at
// most maxID workers whatever happens to GOMAXPROCS between the sizing and
// the dispatch. maxID < 1 is treated as 1 (sequential).
func ForWorkerSized(n, grain, maxID int, body func(w *Worker, lo, hi int)) {
	if maxID < 1 {
		maxID = 1
	}
	forGrained(n, grain, maxID, nil, nil, body)
}

// Iota fills x with the identity (x[i] = i) in chunks, one plain store loop
// per chunk instead of one indirect call per element.
func Iota(x []uint32) {
	ForGrained(len(x), DefaultGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] = uint32(i)
		}
	})
}

// ReduceAdd sums f(i) over [0, n) in parallel.
func ReduceAdd(n int, f func(i int) uint64) uint64 {
	var total atomic.Uint64
	ForGrained(n, DefaultGrain, func(lo, hi int) {
		var local uint64
		for i := lo; i < hi; i++ {
			local += f(i)
		}
		total.Add(local)
	})
	return total.Load()
}

// ReduceMax returns the maximum of f(i) over [0, n), or 0 when n == 0.
func ReduceMax(n int, f func(i int) uint64) uint64 {
	if n == 0 {
		return 0
	}
	var best atomic.Uint64
	ForGrained(n, DefaultGrain, func(lo, hi int) {
		local := f(lo)
		for i := lo + 1; i < hi; i++ {
			if v := f(i); v > local {
				local = v
			}
		}
		for {
			cur := best.Load()
			if local <= cur || best.CompareAndSwap(cur, local) {
				break
			}
		}
	})
	return best.Load()
}

// Count returns the number of i in [0, n) for which pred(i) holds.
func Count(n int, pred func(i int) bool) uint64 {
	return ReduceAdd(n, func(i int) uint64 {
		if pred(i) {
			return 1
		}
		return 0
	})
}

// scanScratch recycles the block-sum arrays of ScanExclusive so the
// steady-state scan (graph builds, filters) does not allocate.
var scanScratch = sync.Pool{New: func() any { return new([]uint64) }}

// ScanExclusive replaces data with its exclusive prefix sum and returns the
// total. It uses a two-pass blocked scan.
func ScanExclusive(data []uint64) uint64 {
	n := len(data)
	if n == 0 {
		return 0
	}
	grain := DefaultGrain
	blocks := (n + grain - 1) / grain
	if blocks == 1 || Procs() == 1 {
		var sum uint64
		for i := range data {
			v := data[i]
			data[i] = sum
			sum += v
		}
		return sum
	}
	bp := scanScratch.Get().(*[]uint64)
	blockSums := *bp
	if cap(blockSums) < blocks {
		blockSums = make([]uint64, blocks)
	}
	blockSums = blockSums[:blocks]
	ForGrained(blocks, 1, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := b*grain, min((b+1)*grain, n)
			var sum uint64
			for i := lo; i < hi; i++ {
				sum += data[i]
			}
			blockSums[b] = sum
		}
	})
	var total uint64
	for b := 0; b < blocks; b++ {
		v := blockSums[b]
		blockSums[b] = total
		total += v
	}
	ForGrained(blocks, 1, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := b*grain, min((b+1)*grain, n)
			sum := blockSums[b]
			for i := lo; i < hi; i++ {
				v := data[i]
				data[i] = sum
				sum += v
			}
		}
	})
	*bp = blockSums
	scanScratch.Put(bp)
	return total
}

// Filter computes FilterIndices into buffers that are reused across calls:
// round-structured kernels (label propagation's frontier, the ingest apply
// path) hold one Filter and stay allocation-free in steady state.
type Filter struct {
	counts []uint64
	out    []uint32
}

// Indices returns, in ascending order, all i in [0, n) satisfying pred.
// The returned slice aliases the Filter's scratch and is valid until the
// next Indices call.
func (f *Filter) Indices(n int, pred func(i int) bool) []uint32 {
	grain := DefaultGrain
	blocks := (n + grain - 1) / grain
	if blocks == 0 {
		return nil
	}
	if cap(f.counts) < blocks {
		f.counts = make([]uint64, blocks)
	}
	counts := f.counts[:blocks]
	ForGrained(blocks, 1, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := b*grain, min((b+1)*grain, n)
			var c uint64
			for i := lo; i < hi; i++ {
				if pred(i) {
					c++
				}
			}
			counts[b] = c
		}
	})
	total := ScanExclusive(counts)
	if uint64(cap(f.out)) < total {
		f.out = make([]uint32, total)
	}
	out := f.out[:total]
	ForGrained(blocks, 1, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := b*grain, min((b+1)*grain, n)
			pos := counts[b]
			for i := lo; i < hi; i++ {
				if pred(i) {
					out[pos] = uint32(i)
					pos++
				}
			}
		}
	})
	return out
}

// FilterIndices returns, in ascending order, all i in [0, n) satisfying
// pred, in a freshly allocated slice. Hot paths that filter repeatedly
// should hold a Filter instead.
func FilterIndices(n int, pred func(i int) bool) []uint32 {
	grain := DefaultGrain
	blocks := (n + grain - 1) / grain
	if blocks == 0 {
		return nil
	}
	counts := make([]uint64, blocks)
	ForGrained(blocks, 1, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := b*grain, min((b+1)*grain, n)
			var c uint64
			for i := lo; i < hi; i++ {
				if pred(i) {
					c++
				}
			}
			counts[b] = c
		}
	})
	total := ScanExclusive(counts)
	out := make([]uint32, total)
	ForGrained(blocks, 1, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := b*grain, min((b+1)*grain, n)
			pos := counts[b]
			for i := lo; i < hi; i++ {
				if pred(i) {
					out[pos] = uint32(i)
					pos++
				}
			}
		}
	})
	return out
}

// ForGrainedSpawn is the pre-pool substrate, retained as the comparison
// baseline for the `sched` experiment and the scheduler microbenchmarks: it
// spawns up to P goroutines per call and claims grains off one shared
// atomic counter. New code should use ForGrained.
func ForGrainedSpawn(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	procs := Procs()
	if procs == 1 || n <= grain {
		body(0, n)
		return
	}
	chunks := (n + grain - 1) / grain
	if procs > chunks {
		procs = chunks
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(procs)
	for w := 0; w < procs; w++ {
		go func() {
			defer wg.Done()
			for {
				c := next.Add(1) - 1
				if c >= int64(chunks) {
					return
				}
				lo := int(c) * grain
				hi := min(lo+grain, n)
				body(lo, hi)
			}
		}()
	}
	wg.Wait()
}
