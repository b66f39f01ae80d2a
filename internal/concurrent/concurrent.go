// Package concurrent provides the low-level atomic primitives used by all
// ConnectIt algorithms: compare-and-swap helpers, writeMin (priority update),
// a packed 64-bit writeMin that carries a witness value alongside the
// priority, a small test-and-test-and-set spinlock, and the stack hint that
// spreads per-goroutine counters over cache lines.
//
// All label mutations in this repository are monotone decreasing and go
// through these primitives, so concurrent interleavings can never regress a
// label (see DESIGN.md §4).
package concurrent

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// WriteMin atomically updates *addr to val if val is smaller than the value
// stored at *addr. It returns true if the update was performed by this call.
// WriteMin is the priority-update primitive of Shun et al. (SPAA'13) used by
// Shiloach-Vishkin, Liu-Tarjan, and Label-Propagation.
func WriteMin(addr *uint32, val uint32) bool {
	for {
		old := atomic.LoadUint32(addr)
		if val >= old {
			return false
		}
		if atomic.CompareAndSwapUint32(addr, old, val) {
			return true
		}
	}
}

// WriteMinKeyed is WriteMin under a custom total order given by less.
// It is used to implement the "favored label" order for sampled min-based
// algorithms, where the label of the largest sampled component compares
// smaller than every other label (DESIGN.md §4).
func WriteMinKeyed(addr *uint32, val uint32, less func(a, b uint32) bool) bool {
	for {
		old := atomic.LoadUint32(addr)
		if !less(val, old) {
			return false
		}
		if atomic.CompareAndSwapUint32(addr, old, val) {
			return true
		}
	}
}

// Pack combines a 32-bit priority and a 32-bit witness payload into a single
// uint64 such that numeric comparison of packed values orders first by
// priority and then by payload. The minimum packed value therefore carries
// the minimum priority.
func Pack(priority, payload uint32) uint64 {
	return uint64(priority)<<32 | uint64(payload)
}

// Unpack splits a packed value into its priority and payload halves.
func Unpack(packed uint64) (priority, payload uint32) {
	return uint32(packed >> 32), uint32(packed)
}

// WriteMinPacked atomically updates *addr to the packed (priority, payload)
// pair if priority is strictly smaller than the priority currently stored.
// The payload rides along with the winning priority, which lets writeMin
// based hooks (Shiloach-Vishkin, RootUp Liu-Tarjan) record the witness edge
// of the final successful hook without a second racey store.
func WriteMinPacked(addr *uint64, priority, payload uint32) bool {
	packed := Pack(priority, payload)
	for {
		old := atomic.LoadUint64(addr)
		if priority >= uint32(old>>32) {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, packed) {
			return true
		}
	}
}

// Spinlock is a test-and-test-and-set spinlock. It is used for the
// lock-based variant of Rem's algorithm (Patwary et al.), where the critical
// sections are a handful of instructions and a full mutex would dominate.
// The zero value is an unlocked Spinlock.
type Spinlock struct {
	state atomic.Uint32
}

// Lock acquires the spinlock, yielding the processor between attempts.
func (s *Spinlock) Lock() {
	for {
		if s.state.Load() == 0 && s.state.CompareAndSwap(0, 1) {
			return
		}
		runtime.Gosched()
	}
}

// TryLock attempts to acquire the lock without blocking and reports whether
// it succeeded.
func (s *Spinlock) TryLock() bool {
	return s.state.Load() == 0 && s.state.CompareAndSwap(0, 1)
}

// Unlock releases the spinlock. It must only be called by the holder.
func (s *Spinlock) Unlock() {
	s.state.Store(0)
}

// StackHint hashes the calling goroutine's stack address, so that
// concurrent goroutines pick different counter lines with no shared state
// and one goroutine keeps picking the same line. Take a 2^k-way index from
// its high bits: StackHint() >> (64 - k). See stackHash.
func StackHint() uint64 {
	var probe byte
	return stackHash(uintptr(unsafe.Pointer(&probe)))
}

// stackHash is a multiplicative hash of addr at 2 KB granularity. Go's
// smallest stack is 2 KB and two goroutines' stacks can lie exactly that far
// apart, so bit 11 is the lowest that tells goroutines apart and must reach
// the high bits: a hash from addr>>12 sends such a pair to one line.
func stackHash(addr uintptr) uint64 {
	return uint64(addr>>11) * 0x9e3779b97f4a7c15
}
