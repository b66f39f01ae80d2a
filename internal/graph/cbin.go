package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"unsafe"

	"connectit/internal/parallel"
)

// This file implements the .cbin on-disk format for compressed graphs. A
// memory-mapped file IS the in-memory representation — the arrays are
// stored verbatim (little-endian) so huge graphs open without materializing
// anything.
//
// Version 4 is the only version read or written: a 32-byte header, then
// the three arrays of a CompressedGraph back to back:
//
//	offset  0: magic   "CBIN" (4 bytes)
//	offset  4: version uint32 (4)
//	offset  8: n       uint64 (vertex count)
//	offset 16: m       uint64 (directed edge count)
//	offset 24: dataLen uint64 (encoded adjacency bytes)
//	offset 32: offsets (n+1) × uint64
//	then     : degrees n × uint32
//	then     : data    dataLen bytes
//
// Each vertex's bytes in data are its block-coded list (compressed.go): a
// list of more than blockSize neighbors starts with a uint32 offset for
// every block after the first, and every block codes its first neighbor
// against the source vertex. The header is 32 bytes, so the offsets start
// 8-aligned and the degrees 4-aligned in a mapping of the whole file, which
// keeps the in-place casts aligned.
//
// Versions 1 to 3 are refused by name, never decoded (DESIGN.md §14): 1 and
// 2 coded each list as one unbroken difference chain, and 3 put a segment
// table of uint32-indexed segments before the arrays. Re-create such a file
// with connectit -convert from its source edge list.

const (
	cbinMagic   = "CBIN"
	cbinVersion = 4
	cbinHeader  = 32
)

// ErrBadCBIN reports a malformed, truncated, or wrong-version .cbin input.
var ErrBadCBIN = fmt.Errorf("graph: invalid cbin file")

// WriteCBIN writes c in the .cbin v4 format.
func WriteCBIN(w io.Writer, c *CompressedGraph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [cbinHeader]byte
	copy(hdr[0:4], cbinMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], cbinVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(c.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[16:24], c.m)
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(c.Data)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeWords(bw, c.Offsets, binary.LittleEndian.PutUint64); err != nil {
		return err
	}
	if err := writeWords(bw, c.Degrees, binary.LittleEndian.PutUint32); err != nil {
		return err
	}
	if _, err := bw.Write(c.Data); err != nil {
		return err
	}
	return bw.Flush()
}

// writeWords encodes vals little-endian through a batch buffer — one Write
// per 64 KiB rather than per word, so saving a scale-20+ graph is bound by
// I/O, not call overhead.
func writeWords[T uint32 | uint64](w io.Writer, vals []T, put func([]byte, T)) error {
	var batch [1 << 16]byte
	size := int(unsafe.Sizeof(T(0)))
	pos := 0
	for _, v := range vals {
		put(batch[pos:], v)
		pos += size
		if pos == len(batch) {
			if _, err := w.Write(batch[:]); err != nil {
				return err
			}
			pos = 0
		}
	}
	if pos > 0 {
		if _, err := w.Write(batch[:pos]); err != nil {
			return err
		}
	}
	return nil
}

// SaveCBIN writes c to path in the .cbin v4 format.
func SaveCBIN(path string, c *CompressedGraph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCBIN(f, c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cbinHeaderFields is a parsed header: vertex count, directed edge count
// and encoded adjacency length.
type cbinHeaderFields struct{ n, m, dataLen uint64 }

// indexEnd is the file offset of the data: the header and the two index
// arrays. It cannot overflow, since n is at most 2^32-1.
func (h cbinHeaderFields) indexEnd() uint64 { return cbinHeader + 8*(h.n+1) + 4*h.n }

// parseCBINHeader validates a header's magic, version and vertex count. A
// header of version 1, 2 or 3 is refused by name.
func parseCBINHeader(hdr []byte) (cbinHeaderFields, error) {
	if string(hdr[0:4]) != cbinMagic {
		return cbinHeaderFields{}, fmt.Errorf("%w: bad magic %q", ErrBadCBIN, hdr[0:4])
	}
	switch v := binary.LittleEndian.Uint32(hdr[4:8]); v {
	case cbinVersion:
	case 1, 2, 3:
		return cbinHeaderFields{}, fmt.Errorf("%w: version %d predates the 64-bit-indexed version %d and is not read; re-create the file with connectit -convert from its source edge list (DESIGN.md §14)", ErrBadCBIN, v, cbinVersion)
	default:
		return cbinHeaderFields{}, fmt.Errorf("%w: unsupported version %d (want %d)", ErrBadCBIN, v, cbinVersion)
	}
	h := cbinHeaderFields{
		n:       binary.LittleEndian.Uint64(hdr[8:16]),
		m:       binary.LittleEndian.Uint64(hdr[16:24]),
		dataLen: binary.LittleEndian.Uint64(hdr[24:32]),
	}
	if h.n > 1<<32-1 {
		return cbinHeaderFields{}, fmt.Errorf("%w: vertex count %d beyond the 32-bit vertex space", ErrBadCBIN, h.n)
	}
	return h, nil
}

// checkIndex validates an offset/degree index shared by the mmap and
// streaming loaders: the offsets must span the data monotonically, every
// vertex's byte span must hold its block header and at least one byte per
// neighbor, and the degrees must sum to the declared edge count. The scan
// is parallel and touches only the index arrays, never the edge payload — a
// graph still opens without reading its adjacency. Corruption inside the
// payload itself, block offsets included, is not detectable without
// decoding and surfaces as garbage neighbors (or an out-of-range panic) at
// traversal time.
func checkIndex(offsets []uint64, degrees []uint32, dataLen, m uint64) error {
	n := len(degrees)
	if offsets[0] != 0 || offsets[n] != dataLen {
		return fmt.Errorf("%w: offset index does not span the %d data bytes", ErrBadCBIN, dataLen)
	}
	var bad atomic.Bool
	var degSum atomic.Uint64
	parallel.ForGrained(n, 1<<14, func(lo, hi int) {
		var local uint64
		for v := lo; v < hi; v++ {
			deg := int(degrees[v])
			if offsets[v+1] < offsets[v] || uint64(headerBytes(deg)+deg) > offsets[v+1]-offsets[v] {
				bad.Store(true)
				return
			}
			local += uint64(deg)
		}
		degSum.Add(local)
	})
	if bad.Load() {
		return fmt.Errorf("%w: offset/degree index is inconsistent", ErrBadCBIN)
	}
	if degSum.Load() != m {
		return fmt.Errorf("%w: degree sum %d != declared edge count %d", ErrBadCBIN, degSum.Load(), m)
	}
	return nil
}

// ReadCBIN reads a .cbin graph from a stream into freshly allocated
// arrays. LoadCBIN is preferred for files: it memory-maps instead of
// copying.
//
// Array storage grows incrementally as bytes actually arrive, so a
// corrupted header's vertex count or data length cannot force a giant
// up-front allocation: a short stream fails with ErrBadCBIN after
// allocating at most proportionally to its real length.
func ReadCBIN(r io.Reader) (*CompressedGraph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [cbinHeader]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadCBIN, err)
	}
	h, err := parseCBINHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	offsets, err := readWords(br, h.n+1, binary.LittleEndian.Uint64)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated offsets: %v", ErrBadCBIN, err)
	}
	degrees, err := readWords(br, h.n, binary.LittleEndian.Uint32)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated degrees: %v", ErrBadCBIN, err)
	}
	data, err := readBytes(br, h.dataLen)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated data: %v", ErrBadCBIN, err)
	}
	if err := checkIndex(offsets, degrees, h.dataLen, h.m); err != nil {
		return nil, err
	}
	return &CompressedGraph{Offsets: offsets, Degrees: degrees, Data: data, m: h.m}, nil
}

// readWords decodes count little-endian words in bounded chunks.
func readWords[T uint32 | uint64](r io.Reader, count uint64, get func([]byte) T) ([]T, error) {
	const chunk = 1 << 16
	size := uint64(unsafe.Sizeof(T(0)))
	out := make([]T, 0, min(count, chunk))
	buf := make([]byte, size*min(count, chunk))
	for remaining := count; remaining > 0; {
		c := min(remaining, chunk)
		b := buf[:size*c]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := uint64(0); i < c; i++ {
			out = append(out, get(b[size*i:]))
		}
		remaining -= c
	}
	return out, nil
}

// readBytes reads count bytes in bounded chunks.
func readBytes(r io.Reader, count uint64) ([]byte, error) {
	const chunk = 1 << 20
	out := make([]byte, 0, min(count, chunk))
	for remaining := count; remaining > 0; {
		c := min(remaining, chunk)
		start := len(out)
		out = append(out, make([]byte, c)...)
		if _, err := io.ReadFull(r, out[start:]); err != nil {
			return nil, err
		}
		remaining -= c
	}
	return out, nil
}

// LoadCBIN opens a .cbin file by memory-mapping all of it: the returned
// graph's arrays alias the one mapping, so the encoded adjacency — the
// dominant term — is never read at load time and pages in on demand as it
// is traversed; only the offset/degree index is scanned (in parallel) to
// validate the file. A graph larger than RAM therefore opens in O(index)
// and executes out of core. Where mmap is unavailable the file is read
// into memory through ReadCBIN instead. Call Close on the returned graph
// to release the mapping.
func LoadCBIN(path string) (*CompressedGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := uint64(st.Size())
	var hdr [cbinHeader]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadCBIN, err)
	}
	h, err := parseCBINHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	dataOff := h.indexEnd()
	if dataOff > size || size-dataOff != h.dataLen {
		return nil, fmt.Errorf("%w: header implies %d index bytes and %d data bytes, file has %d bytes", ErrBadCBIN, dataOff, h.dataLen, size)
	}
	region, err := mmap(f, int(size))
	if err != nil {
		return ReadCBIN(io.NewSectionReader(f, 0, int64(size)))
	}
	n := int(h.n)
	c := &CompressedGraph{
		Offsets: castWords[uint64](region, cbinHeader, n+1),
		Degrees: castWords[uint32](region, cbinHeader+8*(n+1), n),
		Data:    region[dataOff:size:size],
		m:       h.m,
		mapped:  region,
	}
	if err := checkIndex(c.Offsets, c.Degrees, h.dataLen, h.m); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// castWords reinterprets count little-endian words at m[off:] without
// copying. The mapping is page-aligned and the v4 layout keeps every array
// aligned to its word size within it, so the cast is always aligned. Like
// the rest of the mmap fast path it assumes a little-endian host (every
// supported target); the ReadCBIN fallback is byte-order independent.
func castWords[T uint32 | uint64](m []byte, off, count int) []T {
	if count == 0 {
		return []T{}
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&m[off])), count)
}
