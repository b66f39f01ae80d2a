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
// Version 3 is the only version read or written: a 32-byte header, a
// k-entry segment table, then each segment's arrays back to back:
//
//	offset  0: magic   "CBIN" (4 bytes)
//	offset  4: version uint32 (3)
//	offset  8: n       uint64 (vertex count)
//	offset 16: m       uint64 (directed edge count, all segments)
//	offset 24: k       uint64 (segment count)
//	offset 32: k × 32-byte table entries:
//	             firstVertex uint64, numVertices uint64,
//	             dataLen uint64, m uint64 (segment's directed edges)
//	then     : k segment blobs, each padded to an 8-byte boundary:
//	             offsets (numVertices+1)×uint32 (segment-relative),
//	             degrees numVertices×uint32, data dataLen bytes, pad
//
// Each vertex's bytes in data are its block-coded list (compressed.go): a
// list of more than blockSize neighbors starts with a uint32 offset for
// every block after the first, and every block codes its first neighbor
// against the source vertex. Segment table entries must tile [0, n)
// contiguously in order. The header and table are 32- and 8-byte multiples
// and every blob is padded to 8, so each blob's offsets array stays
// 4-aligned for the mmap cast — and each segment memory-maps independently,
// which is how a file larger than RAM opens in O(table) and pages in on
// demand. A single-segment graph is a file with k=1.
//
// Versions 1 and 2 coded each list as one unbroken difference chain. Their
// payload means something else, so they are refused by name, never decoded
// (DESIGN.md §14): re-create such a file with connectit -convert from its
// source edge list.

const (
	cbinMagic    = "CBIN"
	cbinVersion  = 3
	cbinHeader   = 32
	cbinSegEntry = 32
)

// ErrBadCBIN reports a malformed, truncated, or wrong-version .cbin input.
var ErrBadCBIN = fmt.Errorf("graph: invalid cbin file")

// WriteCBIN writes r in the .cbin v3 format. r must already be compressed
// (*CompressedGraph or *SegmentedGraph); compress CSR graphs first.
func WriteCBIN(w io.Writer, r Rep) error {
	segs, starts, m, err := cbinSegments(r)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [cbinHeader]byte
	copy(hdr[0:4], cbinMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], cbinVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(r.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[16:24], m)
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(segs)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var ent [cbinSegEntry]byte
	for i := range segs {
		binary.LittleEndian.PutUint64(ent[0:8], uint64(starts[i]))
		binary.LittleEndian.PutUint64(ent[8:16], uint64(starts[i+1])-uint64(starts[i]))
		binary.LittleEndian.PutUint64(ent[16:24], uint64(len(segs[i].data)))
		binary.LittleEndian.PutUint64(ent[24:32], segs[i].m)
		if _, err := bw.Write(ent[:]); err != nil {
			return err
		}
	}
	var pad [8]byte
	for i := range segs {
		s := &segs[i]
		if err := writeU32s(bw, s.offsets); err != nil {
			return err
		}
		if err := writeU32s(bw, s.degrees); err != nil {
			return err
		}
		if _, err := bw.Write(s.data); err != nil {
			return err
		}
		if p := -(4*len(s.offsets) + 4*len(s.degrees) + len(s.data)) & 7; p > 0 {
			if _, err := bw.Write(pad[:p]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// cbinSegments views a compressed representation as its segment list: a
// CompressedGraph is one segment covering [0, n).
func cbinSegments(r Rep) (segs []segmentRef, starts []uint32, m uint64, err error) {
	switch g := r.(type) {
	case *CompressedGraph:
		return []segmentRef{{offsets: g.Offsets, degrees: g.Degrees, data: g.Data, m: g.m}},
			[]uint32{0, uint32(g.NumVertices())}, g.m, nil
	case *SegmentedGraph:
		return g.segs, g.starts, g.m, nil
	}
	return nil, nil, 0, fmt.Errorf("graph: cannot write %T as .cbin; compress it first", r)
}

// writeU32s encodes vals little-endian through a batch buffer — one Write
// per 64 KiB rather than per word, so saving a scale-20+ graph is bound by
// I/O, not call overhead.
func writeU32s(w io.Writer, vals []uint32) error {
	var batch [1 << 16]byte
	pos := 0
	for _, v := range vals {
		binary.LittleEndian.PutUint32(batch[pos:], v)
		pos += 4
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

// SaveCBIN writes r to path in the .cbin v3 format.
func SaveCBIN(path string, r Rep) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCBIN(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseCBINHeader validates a header's magic, version, vertex count and
// segment count and returns (n, m, k). A version-1 or -2 header is refused
// by name: those files code their lists without blocks.
func parseCBINHeader(hdr []byte) (n, m, k uint64, err error) {
	if string(hdr[0:4]) != cbinMagic {
		return 0, 0, 0, fmt.Errorf("%w: bad magic %q", ErrBadCBIN, hdr[0:4])
	}
	switch v := binary.LittleEndian.Uint32(hdr[4:8]); v {
	case cbinVersion:
	case 1, 2:
		return 0, 0, 0, fmt.Errorf("%w: version %d predates the block-coded version %d and is not read; re-create the file with connectit -convert from its source edge list (DESIGN.md §14)", ErrBadCBIN, v, cbinVersion)
	default:
		return 0, 0, 0, fmt.Errorf("%w: unsupported version %d (want %d)", ErrBadCBIN, v, cbinVersion)
	}
	n = binary.LittleEndian.Uint64(hdr[8:16])
	m = binary.LittleEndian.Uint64(hdr[16:24])
	k = binary.LittleEndian.Uint64(hdr[24:32])
	if n > 1<<32-1 {
		return 0, 0, 0, fmt.Errorf("%w: vertex count %d beyond the 32-bit vertex space", ErrBadCBIN, n)
	}
	if k == 0 || k > n+1 {
		return 0, 0, 0, fmt.Errorf("%w: segment count %d for %d vertices", ErrBadCBIN, k, n)
	}
	return n, m, k, nil
}

// cbinSegMeta is one parsed-and-validated segment table entry, with the
// absolute file offset of the segment's blob.
type cbinSegMeta struct {
	first, count  uint64
	dataLen, m    uint64
	blobOff       uint64
	blobLen       uint64 // unpadded: offsets + degrees + data bytes
	blobLenPadded uint64
}

// parseCBINTable validates a segment table against the header's (n, m, k)
// and returns per-segment metadata. The entries must tile [0, n)
// contiguously in file order — any overlap, gap, or reordering is rejected —
// and empty segments are allowed only as the single segment of an empty
// graph, which bounds k by n. size is the total file length when known, or
// -1 for streams.
func parseCBINTable(n, m, k uint64, table []byte, size int64) ([]cbinSegMeta, error) {
	segs := make([]cbinSegMeta, 0, k)
	next := uint64(0)
	off := uint64(cbinHeader) + k*cbinSegEntry
	var msum uint64
	for i := uint64(0); i < k; i++ {
		e := table[i*cbinSegEntry:]
		sm := cbinSegMeta{
			first:   binary.LittleEndian.Uint64(e[0:8]),
			count:   binary.LittleEndian.Uint64(e[8:16]),
			dataLen: binary.LittleEndian.Uint64(e[16:24]),
			m:       binary.LittleEndian.Uint64(e[24:32]),
		}
		if sm.first != next {
			return nil, fmt.Errorf("%w: segment %d starts at vertex %d, expected %d (segments must tile [0,n) in order)", ErrBadCBIN, i, sm.first, next)
		}
		if sm.count > n-next {
			return nil, fmt.Errorf("%w: segment %d covers %d vertices past the graph's %d", ErrBadCBIN, i, sm.count, n)
		}
		if sm.count == 0 && n != 0 {
			return nil, fmt.Errorf("%w: segment %d is empty", ErrBadCBIN, i)
		}
		if sm.dataLen > maxCompressedBytes {
			return nil, fmt.Errorf("%w: segment %d data length %d beyond the 4 GiB offset cap", ErrBadCBIN, i, sm.dataLen)
		}
		if sm.m > sm.dataLen {
			return nil, fmt.Errorf("%w: segment %d: %d directed edges cannot fit in %d data bytes", ErrBadCBIN, i, sm.m, sm.dataLen)
		}
		next = sm.first + sm.count
		msum += sm.m
		sm.blobOff = off
		sm.blobLen = 4*(sm.count+1) + 4*sm.count + sm.dataLen
		sm.blobLenPadded = (sm.blobLen + 7) &^ 7
		off += sm.blobLenPadded
		if size >= 0 && off > uint64(size) {
			return nil, fmt.Errorf("%w: segment %d extends past the file's %d bytes", ErrBadCBIN, i, size)
		}
		segs = append(segs, sm)
	}
	if next != n {
		return nil, fmt.Errorf("%w: segments cover vertices [0,%d), graph has %d", ErrBadCBIN, next, n)
	}
	if msum != m {
		return nil, fmt.Errorf("%w: segment edge counts sum to %d, header says %d", ErrBadCBIN, msum, m)
	}
	if size >= 0 && off != uint64(size) {
		return nil, fmt.Errorf("%w: header implies %d bytes, file has %d", ErrBadCBIN, off, size)
	}
	return segs, nil
}

// checkIndex validates an offset/degree index shared by the mmap and
// streaming loaders: the offsets must span the data monotonically, every
// vertex's degree must fit in its byte span (each neighbor encodes as at
// least one byte), and the degrees must sum to the declared edge count.
// The scan is parallel and touches only the index arrays, never the edge
// payload — a graph still opens without reading its adjacency. Corruption
// inside the payload itself, block offsets included, is not detectable
// without decoding and surfaces as garbage neighbors (or an out-of-range
// panic) at traversal time.
func checkIndex(offsets, degrees []uint32, dataLen, m uint64) error {
	n := len(degrees)
	if offsets[0] != 0 || uint64(offsets[n]) != dataLen {
		return fmt.Errorf("%w: offset index does not span the %d data bytes", ErrBadCBIN, dataLen)
	}
	var bad atomic.Bool
	var degSum atomic.Uint64
	parallel.ForGrained(n, 1<<14, func(lo, hi int) {
		var local uint64
		for v := lo; v < hi; v++ {
			if offsets[v+1] < offsets[v] || uint64(degrees[v]) > uint64(offsets[v+1]-offsets[v]) {
				bad.Store(true)
				return
			}
			local += uint64(degrees[v])
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
// copying. Single-segment inputs (k=1) return a *CompressedGraph;
// multi-segment ones return a *SegmentedGraph.
//
// Array storage grows incrementally as bytes actually arrive, so a
// corrupted header's vertex or segment count cannot force a giant up-front
// allocation: a short stream fails with ErrBadCBIN after allocating at
// most proportionally to its real length.
func ReadCBIN(r io.Reader) (Rep, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [cbinHeader]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadCBIN, err)
	}
	n, m, k, err := parseCBINHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	table, err := readBytes(br, k*cbinSegEntry)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated segment table: %v", ErrBadCBIN, err)
	}
	metas, err := parseCBINTable(n, m, k, table, -1)
	if err != nil {
		return nil, err
	}
	s := &SegmentedGraph{
		segs:   make([]segmentRef, k),
		starts: make([]uint32, k+1),
		n:      int(n),
		m:      m,
	}
	for i, sm := range metas {
		s.starts[i] = uint32(sm.first)
		offsets, err := readU32s(br, sm.count+1)
		if err != nil {
			return nil, fmt.Errorf("%w: segment %d: truncated offsets: %v", ErrBadCBIN, i, err)
		}
		degrees, err := readU32s(br, sm.count)
		if err != nil {
			return nil, fmt.Errorf("%w: segment %d: truncated degrees: %v", ErrBadCBIN, i, err)
		}
		data, err := readBytes(br, sm.dataLen)
		if err != nil {
			return nil, fmt.Errorf("%w: segment %d: truncated data: %v", ErrBadCBIN, i, err)
		}
		if pad := int(sm.blobLenPadded - sm.blobLen); pad > 0 {
			if _, err := br.Discard(pad); err != nil {
				return nil, fmt.Errorf("%w: segment %d: truncated padding: %v", ErrBadCBIN, i, err)
			}
		}
		if err := checkIndex(offsets, degrees, sm.dataLen, sm.m); err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		s.segs[i] = segmentRef{offsets: offsets, degrees: degrees, data: data, m: sm.m}
	}
	s.starts[k] = uint32(n)
	if k == 1 {
		return &CompressedGraph{Offsets: s.segs[0].offsets, Degrees: s.segs[0].degrees, Data: s.segs[0].data, m: m}, nil
	}
	return s, nil
}

// readU32s decodes count little-endian uint32 values in bounded chunks.
func readU32s(r io.Reader, count uint64) ([]uint32, error) {
	const chunk = 1 << 16
	out := make([]uint32, 0, min(count, chunk))
	buf := make([]byte, 4*min(count, chunk))
	for remaining := count; remaining > 0; {
		c := min(remaining, chunk)
		b := buf[:4*c]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := uint64(0); i < c; i++ {
			out = append(out, binary.LittleEndian.Uint32(b[4*i:]))
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

// LoadCBIN opens a .cbin file by memory-mapping it: the returned graph's
// arrays alias the mapping(s), so the encoded adjacency — the dominant term
// — is never read at load time and pages in on demand as it is traversed;
// only the offset/degree index is scanned (in parallel) to validate the
// file. Each segment maps independently, so a graph larger than RAM opens
// in O(segment table) and executes out of core. A segment whose mapping
// fails (no mmap on this platform) is read into memory instead, so mapped
// and heap-backed segments can coexist. Call Close on the returned graph to
// release the mapping(s).
//
// Single-segment files (k=1) return a *CompressedGraph; multi-segment files
// return a *SegmentedGraph.
func LoadCBIN(path string) (Rep, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	var hdr [cbinHeader]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadCBIN, err)
	}
	n, m, k, err := parseCBINHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	if uint64(cbinHeader)+k*cbinSegEntry > uint64(size) {
		return nil, fmt.Errorf("%w: segment count %d for %d vertices in a %d-byte file", ErrBadCBIN, k, n, size)
	}
	table := make([]byte, k*cbinSegEntry)
	if _, err := f.ReadAt(table, cbinHeader); err != nil {
		return nil, fmt.Errorf("%w: truncated segment table: %v", ErrBadCBIN, err)
	}
	metas, err := parseCBINTable(n, m, k, table, size)
	if err != nil {
		return nil, err
	}
	s := &SegmentedGraph{
		segs:   make([]segmentRef, k),
		starts: make([]uint32, k+1),
		n:      int(n),
		m:      m,
		maps:   make([][]byte, k),
	}
	ok := false
	defer func() {
		if !ok {
			s.Close()
		}
	}()
	for i, sm := range metas {
		s.starts[i] = uint32(sm.first)
		c := int(sm.count)
		offEnd := 4 * (c + 1)
		degEnd := offEnd + 4*c
		if view, region, err := mmapRegion(f, int64(sm.blobOff), int(sm.blobLen)); err == nil {
			s.segs[i] = segmentRef{
				offsets: u32slice(view, 0, c+1),
				degrees: u32slice(view, offEnd, c),
				data:    view[degEnd : degEnd+int(sm.dataLen) : degEnd+int(sm.dataLen)],
				m:       sm.m,
			}
			s.maps[i] = region
			continue
		}
		sr := bufio.NewReaderSize(io.NewSectionReader(f, int64(sm.blobOff), int64(sm.blobLen)), 1<<20)
		offsets, err := readU32s(sr, sm.count+1)
		if err != nil {
			return nil, fmt.Errorf("%w: segment %d: truncated offsets: %v", ErrBadCBIN, i, err)
		}
		degrees, err := readU32s(sr, sm.count)
		if err != nil {
			return nil, fmt.Errorf("%w: segment %d: truncated degrees: %v", ErrBadCBIN, i, err)
		}
		data, err := readBytes(sr, sm.dataLen)
		if err != nil {
			return nil, fmt.Errorf("%w: segment %d: truncated data: %v", ErrBadCBIN, i, err)
		}
		s.segs[i] = segmentRef{offsets: offsets, degrees: degrees, data: data, m: sm.m}
	}
	s.starts[k] = uint32(n)
	for i := range s.segs {
		if err := checkIndex(s.segs[i].offsets, s.segs[i].degrees, metas[i].dataLen, metas[i].m); err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
	}
	ok = true
	if k == 1 {
		return &CompressedGraph{Offsets: s.segs[0].offsets, Degrees: s.segs[0].degrees, Data: s.segs[0].data, m: m, mapped: s.maps[0]}, nil
	}
	return s, nil
}

// u32slice reinterprets count little-endian uint32 values at m[off:] without
// copying. The .cbin header, segment table, and blob padding keep every
// array 4-aligned within its (page-aligned) mapping, so the cast is always
// aligned. Like the rest of the mmap fast path it assumes a little-endian
// host (every supported target); the ReadCBIN fallback is byte-order
// independent.
func u32slice(m []byte, off, count int) []uint32 {
	if count == 0 {
		return []uint32{}
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&m[off])), count)
}
