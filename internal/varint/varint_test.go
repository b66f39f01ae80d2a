package varint

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 129, 16383, 16384, 1 << 21, 1 << 28,
		1 << 35, 1 << 42, 1 << 49, 1 << 56, 1<<63 - 1, 1 << 63, math.MaxUint64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		cases = append(cases, rng.Uint64()>>uint(rng.Intn(64)))
	}
	var buf [MaxLen]byte
	for _, v := range cases {
		k := Put(buf[:], v)
		got, n := Get(buf[:k])
		if got != v || n != k {
			t.Fatalf("Put/Get(%d): got (%d, %d), wrote %d bytes", v, got, n, k)
		}
		app := Append(nil, v)
		if len(app) != k {
			t.Fatalf("Append(%d): %d bytes, Put wrote %d", v, len(app), k)
		}
		for i := range app {
			if app[i] != buf[i] {
				t.Fatalf("Append(%d) byte %d: %02x != %02x", v, i, app[i], buf[i])
			}
		}
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	cases := []int64{0, 1, -1, 2, -2, 63, -63, 64, -64, math.MaxInt64, math.MinInt64}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		cases = append(cases, int64(rng.Uint64()))
	}
	for _, d := range cases {
		if got := Unzigzag(Zigzag(d)); got != d {
			t.Fatalf("Unzigzag(Zigzag(%d)) = %d", d, got)
		}
	}
	// Small magnitudes must encode small regardless of sign.
	var buf [MaxLen]byte
	for d := int64(-63); d <= 63; d++ {
		if k := Put(buf[:], Zigzag(d)); k != 1 {
			t.Fatalf("Zigzag(%d) took %d bytes, want 1", d, k)
		}
	}
}

// TestGetTruncated pins the untrusted-input contract: a varint cut mid-
// encoding decodes to n == 0, never to a fabricated value or a panic.
func TestGetTruncated(t *testing.T) {
	var buf [MaxLen]byte
	for _, v := range []uint64{128, 1 << 20, 1 << 40, math.MaxUint64} {
		k := Put(buf[:], v)
		for cut := 0; cut < k; cut++ {
			if _, n := Get(buf[:cut]); n != 0 {
				t.Fatalf("Get of %d truncated at %d bytes: n = %d, want 0", v, cut, n)
			}
		}
	}
}

// TestGetOverflow rejects an 11-byte continuation run and a 10th byte that
// would overflow uint64.
func TestGetOverflow(t *testing.T) {
	over := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	if _, n := Get(over); n != 0 {
		t.Fatalf("11-byte varint: n = %d, want 0", n)
	}
	big := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}
	if _, n := Get(big); n != 0 {
		t.Fatalf("overflowing 10th byte: n = %d, want 0", n)
	}
	max := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	if v, n := Get(max); n != MaxLen || v != math.MaxUint64 {
		t.Fatalf("MaxUint64: got (%d, %d)", v, n)
	}
}

// TestGetNonMinimal pins the one-encoding-per-value contract: a trailing
// zero continuation group (an overlong encoding of a smaller value) is
// rejected, so "checksum-valid but unparseable" stays a reliable writer-
// damage signal for the strict wire/WAL decoders.
func TestGetNonMinimal(t *testing.T) {
	for _, buf := range [][]byte{
		{0x80, 0x00},
		{0xff, 0x00},
		{0x80, 0x80, 0x00},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00},
	} {
		if v, n := Get(buf); n != 0 {
			t.Fatalf("Get(%x) = (%d, %d), want n == 0 for non-minimal encoding", buf, v, n)
		}
	}
	// The single zero byte is the minimal encoding of 0 and must survive.
	if v, n := Get([]byte{0x00}); n != 1 || v != 0 {
		t.Fatalf("Get(00) = (%d, %d), want (0, 1)", v, n)
	}
}

// FuzzVarint: Get never panics on arbitrary bytes, a rejection is n == 0
// with x == 0, and every value it accepts re-encodes through Append to
// exactly the bytes it consumed — the one accepted encoding per value that
// Get's doc promises. The corpus is seeded with minimal encodings and every
// rejected shape the tests above pin.
func FuzzVarint(f *testing.F) {
	for _, v := range []uint64{0, 1, 127, 128, 16384, 1 << 40, math.MaxUint64} {
		f.Add(Append(nil, v))
	}
	for _, b := range [][]byte{
		{},
		{0x80},
		{0x80, 0x00},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		{0x05, 0xff}, // a complete varint followed by more bytes
	} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		x, n := Get(b)
		if n == 0 {
			if x != 0 {
				t.Fatalf("Get(%x) rejected the input but returned x = %d", b, x)
			}
			return
		}
		if n > len(b) || n > MaxLen {
			t.Fatalf("Get(%x) consumed %d bytes", b, n)
		}
		if enc := Append(nil, x); !bytes.Equal(enc, b[:n]) {
			t.Fatalf("Get(%x) = %d from %d bytes, which Append encodes as %x", b, x, n, enc)
		}
	})
}
