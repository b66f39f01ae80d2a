package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"connectit/internal/fault"
	"connectit/internal/graph"
	"connectit/internal/wire"
)

// errTornHeader reports a final segment whose 16-byte header is short or
// unrecognizable — the signature of a crash between rotate's file creation
// and its header write. Open repairs it by discarding the file; no record
// in a headerless segment was ever acknowledged.
var errTornHeader = errors.New("wal: torn segment header")

// Replay invokes fn, in LSN order, for every record with lsn >= from. The
// edges slice is scratch reused across calls; fn must not retain it. Replay
// re-reads the segment files Open validated. It is normally called once, at
// boot, after ReplaySnapshot, with from = the snapshot's covering LSN.
// Union idempotence makes over-replay harmless, so a caller unsure of its
// floor may replay low.
func (l *Log) Replay(from uint64, fn func(lsn uint64, edges []graph.Edge) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()
	for i, s := range segs {
		if s.first+s.count <= from {
			continue
		}
		last := i == len(segs)-1
		_, _, _, err := scanSegment(l.fs, s.path, last, func(lsn uint64, edges []graph.Edge) error {
			if lsn < from {
				return nil
			}
			return fn(lsn, edges)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ReplaySnapshot invokes fn, in order, for every record of the latest
// committed snapshot, and does nothing when there is none. The edges slice
// is scratch reused across calls; fn must not retain it. A snapshot is
// installed only by an fsync and a rename, so no torn write explains damage
// in one: any invalid record is ErrCorrupt.
func (l *Log) ReplaySnapshot(fn func(edges []graph.Edge) error) error {
	l.mu.Lock()
	path, ok := l.snapPath, l.hasSnap
	l.mu.Unlock()
	if !ok {
		return nil
	}
	_, _, _, err := scanSegment(l.fs, path, false, func(_ uint64, edges []graph.Edge) error {
		return fn(edges)
	})
	return err
}

// scanSegment reads one segment (or snapshot) file, validating the header
// and every record, and calls fn (when non-nil) per valid record with its
// edges, decoded into scratch reused across records. It returns the file's
// first LSN, the number of valid records, and the byte offset where the
// valid prefix ends.
//
// repairTail selects the torn-write contract for the segment: when true
// (final segment) the first invalid record simply ends the scan — a crash
// mid-append legitimately leaves one partial record — and the caller
// truncates the file there; a short or unrecognizable header likewise
// returns errTornHeader (a crash mid-rotation leaves exactly that) for the
// caller to repair. When false (any earlier segment) an invalid record or
// header is unexplainable damage and returns ErrCorrupt. One exception cuts
// across both modes: a record whose CRC verifies but whose payload is not
// a parseable wire block is ErrCorrupt even in the final segment — a
// torn write cannot checksum garbage correctly, so that damage has no
// crash explanation.
func scanSegment(fsys fault.FS, path string, repairTail bool, fn func(lsn uint64, edges []graph.Edge) error) (first, count uint64, validEnd int64, err error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: %w", err)
	}
	if len(data) < segHeader || string(data[0:4]) != segMagic {
		if repairTail {
			return 0, 0, 0, errTornHeader
		}
		return 0, 0, 0, fmt.Errorf("%w: %s: bad segment header", ErrCorrupt, path)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != segVersion {
		return 0, 0, 0, fmt.Errorf("wal: %s has format version %d, but this log reads only version %d; see DESIGN.md §11", path, v, segVersion)
	}
	first = binary.LittleEndian.Uint64(data[8:16])
	off := int64(segHeader)
	lsn := first
	var edges []graph.Edge
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return first, count, off, nil
		}
		ok := false
		var payload []byte
		if len(rest) >= recHeader {
			n := binary.LittleEndian.Uint32(rest[0:4])
			if n > 0 && n <= maxRecordBytes && int(n) <= len(rest)-recHeader {
				payload = rest[recHeader : recHeader+int(n)]
				ok = binary.LittleEndian.Uint32(rest[4:8]) == crc32.Checksum(payload, castagnoli)
			}
		}
		if !ok {
			if repairTail {
				return first, count, off, nil
			}
			return 0, 0, 0, fmt.Errorf("%w: %s: invalid record at offset %d (LSN %d) that no torn write explains", ErrCorrupt, path, off, lsn)
		}
		// Structural validation behind the CRC: a checksum-valid block that
		// does not parse is damage no torn write explains. Without fn the
		// scan only counts, so validating a segment allocates nothing.
		var n int
		if fn == nil {
			_, n, err = wire.CountBlock(payload)
		} else {
			edges, n, err = wire.DecodeBlock(payload, edges)
		}
		if err == nil && n != len(payload) {
			err = fmt.Errorf("%w: %d trailing payload bytes", wire.ErrMalformed, len(payload)-n)
		}
		if err != nil {
			return 0, 0, 0, fmt.Errorf("%w: %s: record at offset %d (LSN %d): %v", ErrCorrupt, path, off, lsn, err)
		}
		if fn != nil {
			if err := fn(lsn, edges); err != nil {
				return 0, 0, 0, err
			}
		}
		off += int64(recHeader + len(payload))
		lsn++
		count++
	}
}
