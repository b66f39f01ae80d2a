package concurrent

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestWriteMinSequential(t *testing.T) {
	x := uint32(10)
	if !WriteMin(&x, 5) {
		t.Fatal("WriteMin(10->5) should succeed")
	}
	if x != 5 {
		t.Fatalf("x = %d, want 5", x)
	}
	if WriteMin(&x, 7) {
		t.Fatal("WriteMin(5->7) should fail")
	}
	if WriteMin(&x, 5) {
		t.Fatal("WriteMin(5->5) should fail (strict)")
	}
	if x != 5 {
		t.Fatalf("x = %d, want 5", x)
	}
}

func TestWriteMinConcurrentKeepsMinimum(t *testing.T) {
	const writers = 64
	const perWriter = 1000
	x := ^uint32(0)
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				WriteMin(&x, uint32(w*perWriter+i+1))
			}
		}(w)
	}
	wg.Wait()
	if x != 1 {
		t.Fatalf("concurrent WriteMin final = %d, want 1", x)
	}
}

func TestWriteMinKeyedFavored(t *testing.T) {
	const favored = 99
	less := func(a, b uint32) bool {
		if a == favored {
			return b != favored
		}
		if b == favored {
			return false
		}
		return a < b
	}
	x := uint32(3)
	if !WriteMinKeyed(&x, favored, less) {
		t.Fatal("favored label should beat 3")
	}
	if WriteMinKeyed(&x, 0, less) {
		t.Fatal("nothing should beat the favored label")
	}
	if x != favored {
		t.Fatalf("x = %d, want %d", x, favored)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(pri, pay uint32) bool {
		p, q := Unpack(Pack(pri, pay))
		return p == pri && q == pay
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackOrdersByPriority(t *testing.T) {
	f := func(p1, p2, a, b uint32) bool {
		if p1 == p2 {
			return true
		}
		lo, hi := p1, p2
		if lo > hi {
			lo, hi = hi, lo
		}
		return Pack(lo, a) < Pack(hi, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteMinPackedCarriesPayload(t *testing.T) {
	x := Pack(^uint32(0), 0)
	if !WriteMinPacked(&x, 10, 111) {
		t.Fatal("first writeMin should succeed")
	}
	if WriteMinPacked(&x, 10, 222) {
		t.Fatal("equal priority must not overwrite (strict min)")
	}
	if !WriteMinPacked(&x, 3, 333) {
		t.Fatal("smaller priority should win")
	}
	pri, pay := Unpack(x)
	if pri != 3 || pay != 333 {
		t.Fatalf("got (%d,%d), want (3,333)", pri, pay)
	}
}

func TestWriteMinPackedConcurrent(t *testing.T) {
	const writers = 32
	x := Pack(^uint32(0), 0)
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v := uint32(w*500 + i + 1)
				WriteMinPacked(&x, v, v*2)
			}
		}(w)
	}
	wg.Wait()
	pri, pay := Unpack(x)
	if pri != 1 || pay != 2 {
		t.Fatalf("got (%d,%d), want (1,2)", pri, pay)
	}
}

func TestSpinlockMutualExclusion(t *testing.T) {
	var lock Spinlock
	var counter int
	var wg sync.WaitGroup
	const workers = 16
	const iters = 2000
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				lock.Lock()
				counter++
				lock.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d", counter, workers*iters)
	}
}

func TestSpinlockTryLock(t *testing.T) {
	var lock Spinlock
	if !lock.TryLock() {
		t.Fatal("TryLock on free lock should succeed")
	}
	if lock.TryLock() {
		t.Fatal("TryLock on held lock should fail")
	}
	lock.Unlock()
	if !lock.TryLock() {
		t.Fatal("TryLock after Unlock should succeed")
	}
}

// TestStackHashLines holds the stack hint's 64-line index to synthetic
// stack addresses. Goroutine stacks are 2 KB apart at the least, so a run
// of 64 such stacks must cover most of the lines, and a handful of stacks
// spaced by any power-of-two stride up to 1 MB must not share one. A hash
// that drops bit 11 puts every adjacent pair of 2 KB stacks on one line and
// fails both cases.
func TestStackHashLines(t *testing.T) {
	const (
		bits    = 6
		kb      = 1 << 10
		strided = 8 // stacks per stride that must land on distinct lines
	)
	line := func(addr uintptr) uint64 { return stackHash(addr) >> (64 - bits) }
	distinct := func(base, stride uintptr, n int) int {
		seen := make(map[uint64]bool)
		for i := 0; i < n; i++ {
			seen[line(base+uintptr(i)*stride)] = true
		}
		return len(seen)
	}
	for _, base := range []uintptr{0xc000000000, 0xc000038000, 0xc000100000, 0x7f0000000000} {
		if got := distinct(base, 2*kb, 1<<bits); got < 48 {
			t.Errorf("base %#x: 64 stacks 2 KB apart cover %d lines, want ≥ 48", base, got)
		}
		for stride := uintptr(2 * kb); stride <= 1024*kb; stride <<= 1 {
			if got := distinct(base, stride, strided); got != strided {
				t.Errorf("base %#x: %d stacks %d KB apart cover %d lines, want %d", base, strided, stride/kb, got, strided)
			}
		}
	}
}
