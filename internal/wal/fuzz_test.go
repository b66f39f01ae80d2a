package wal

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"connectit/internal/fault"
	"connectit/internal/graph"
	"connectit/internal/wire"
)

// bytesFS serves one file's bytes to ReadFile, so the fuzz targets decode
// without touching the disk. Every other method is the nil fault.FS's and
// panics, which no scan or replay calls.
type bytesFS struct {
	fault.FS
	data []byte
}

func (b bytesFS) ReadFile(string) ([]byte, error) { return b.data, nil }

// segmentSeeds returns the files the corruption, torn-tail and
// torn-rotation tests build, written straight in the on-disk format: a
// clean segment of 30 records, the corruption matrix's payload flip,
// truncation inside a varint run, CRC-valid malformed block and final
// record flip, a torn tail, the torn-rotation header cuts, an empty-block
// record, a segment starting past LSN 0, and a pre-break version.
func segmentSeeds() [][]byte {
	build := func(first uint64, records int) []byte {
		b := appendHeader(nil, first)
		for i := 0; i < records; i++ {
			b = encodeRecord(b, recEdges(i))
		}
		return b
	}
	record := func(payload []byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
		return append(b, payload...)
	}
	clean := build(0, 30)
	flip := func(i int) []byte {
		b := slices.Clone(clean)
		b[i] ^= 0xff
		return b
	}
	version := slices.Clone(clean)
	binary.LittleEndian.PutUint32(version[4:8], 1)
	return [][]byte{
		clean,
		flip(segHeader + recHeader + 1),
		clean[:len(clean)-2],
		append(slices.Clone(clean), record([]byte{0x7f, 0x03, 0x01, 0x02})...),
		flip(len(clean) - 1),
		clean[:len(clean)-3],
		nil,
		clean[:7],
		clean[:segHeader-1],
		[]byte("CW"),
		append(build(0, 3), record(wire.AppendBlock(nil, nil))...),
		build(17, 4),
		version,
	}
}

// FuzzScanSegment holds the segment decoder to its contract on arbitrary
// bytes, with the torn-tail repair on and off. It never panics; every
// error names the package ("wal: ..."); the records it accepts carry
// contiguous LSNs from the header's first, as many as it counts, and end
// at validEnd inside the file. Counting (no callback) and decoding agree.
// A scan without repair accepts a file only whole, and the valid prefix a
// repairing scan keeps is itself a whole segment.
func FuzzScanSegment(f *testing.F) {
	for _, seed := range segmentSeeds() {
		f.Add(seed, true)
		f.Add(seed, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, repairTail bool) {
		fsys := bytesFS{data: data}
		var lsns []uint64
		first, count, validEnd, err := scanSegment(fsys, "seg", repairTail, func(lsn uint64, edges []graph.Edge) error {
			lsns = append(lsns, lsn)
			return nil
		})
		cFirst, cCount, cEnd, cErr := scanSegment(fsys, "seg", repairTail, nil)
		if (err == nil) != (cErr == nil) || first != cFirst || count != cCount || validEnd != cEnd {
			t.Fatalf("decoding scan (%d, %d, %d, %v) and counting scan (%d, %d, %d, %v) differ",
				first, count, validEnd, err, cFirst, cCount, cEnd, cErr)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "wal: ") {
				t.Fatalf("error %q lacks the wal: prefix", err)
			}
			return
		}
		if uint64(len(lsns)) != count {
			t.Fatalf("%d records delivered, %d counted", len(lsns), count)
		}
		for i, lsn := range lsns {
			if lsn != first+uint64(i) {
				t.Fatalf("record %d carries LSN %d, want %d", i, lsn, first+uint64(i))
			}
		}
		if validEnd < segHeader || validEnd > int64(len(data)) {
			t.Fatalf("valid prefix ends at %d in a %d-byte file", validEnd, len(data))
		}
		if !repairTail && validEnd != int64(len(data)) {
			t.Fatalf("a scan without repair accepted %d of %d bytes", validEnd, len(data))
		}
		pFirst, pCount, pEnd, pErr := scanSegment(bytesFS{data: data[:validEnd]}, "seg", false, nil)
		if pErr != nil || pFirst != first || pCount != count || pEnd != validEnd {
			t.Fatalf("valid prefix rescanned as (%d, %d, %d, %v), want (%d, %d, %d, nil)",
				pFirst, pCount, pEnd, pErr, first, count, validEnd)
		}
	})
}

// FuzzReplaySnapshot holds snapshot replay to its contract on arbitrary
// file bytes. It never panics; every error names the package; a snapshot
// admits no torn tail, so a replay succeeds only on a file that is a whole
// segment, and then delivers exactly the records a scan counts.
func FuzzReplaySnapshot(f *testing.F) {
	for _, seed := range segmentSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l := &Log{fs: bytesFS{data: data}, hasSnap: true, snapPath: "snap"}
		records := uint64(0)
		err := l.ReplaySnapshot(func(edges []graph.Edge) error {
			records++
			return nil
		})
		_, count, validEnd, scanErr := scanSegment(l.fs, "snap", false, nil)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "wal: ") {
				t.Fatalf("error %q lacks the wal: prefix", err)
			}
			if scanErr == nil {
				t.Fatalf("replay failed with %v on a file a scan accepts", err)
			}
			return
		}
		if scanErr != nil || validEnd != int64(len(data)) || records != count {
			t.Fatalf("replay delivered %d records; the scan counted %d over %d of %d bytes (%v)",
				records, count, validEnd, len(data), scanErr)
		}
	})
}
