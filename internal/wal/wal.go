// Package wal implements the write-ahead edge log behind the serving
// layer's durability contract (DESIGN.md §11): every update batch the
// server acknowledges is appended — length-prefixed and CRC-checked — to a
// segmented log before it enters the ingest pipeline, so a crash loses
// nothing that was acknowledged. Compaction is snapshot-based: the server
// periodically hands CommitSnapshot its live spanning forest, which is
// written in the log's own file layout — the same header, the same CRC'd
// records — and tagged with the log sequence number it covers, after which
// every fully-covered segment is deleted. Boot is ReplaySnapshot + Replay
// of the tail.
//
// Record format, within a segment or snapshot file:
//
//	[4B little-endian payload length][4B CRC-32C of payload][payload]
//
// where the payload is one wire edge block (internal/wire): a tag byte, the
// uncompressed edge count as a varint, and the zigzag-delta varint coded
// edges (or the raw fallback when a batch has no locality to exploit),
// typically well under 8 bytes/edge on sorted or locality-heavy batches.
// The CRC covers the stored (compressed) payload bytes. Files open with a
// 16-byte header (magic, version 2, and the LSN of the file's first record;
// a snapshot's is the LSN it covers), and segments rotate at SegmentBytes.
// LSNs number records (not bytes) contiguously across segments. Version-1
// segments (raw 8-byte edges) and .cbin snapshots predate the format break
// DESIGN.md §11 records; Open refuses a directory holding either.
//
// Torn-write handling follows the usual WAL contract: an invalid record in
// the *final* segment marks the end of the log — the tail beyond it is
// discarded and physically truncated at Open, since a crash mid-append can
// leave exactly one partial record — and a final segment with a short or
// unrecognizable header (a crash mid-rotation, before any record in it was
// acknowledged) is discarded whole. An invalid record or header anywhere
// else (or a gap in the LSN chain between segments) cannot be explained by
// a torn write and surfaces as ErrCorrupt. A record whose CRC verifies but
// whose payload does not parse as a wire block is ErrCorrupt in every
// position: a torn write cannot produce a valid checksum over garbage, so
// that state is writer damage, not a crash artifact. In the other direction, a failed
// append wedges the log fail-stop: appending past a partial write would put
// later acknowledged records beyond garbage that the next Open truncates.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"

	"connectit/internal/fault"
	"connectit/internal/graph"
	"connectit/internal/wire"
)

// ErrCorrupt reports a log whose damage cannot be explained by a torn tail
// write: a bad CRC or truncated record in a non-final segment, a malformed
// segment header, or a gap in the LSN chain.
var ErrCorrupt = errors.New("wal: corrupt log")

const (
	segMagic   = "CWAL"
	segVersion = 2
	segHeader  = 16 // magic[4] version[4] firstLSN[8]
	recHeader  = 8  // payload length[4] crc[4]

	// maxRecordBytes bounds one record's payload (16M edges): a corrupted
	// length field must never drive a multi-GiB allocation.
	maxRecordBytes = 1 << 27
	// snapRecordEdges bounds one snapshot record, so writing a snapshot
	// holds one record's encoding at a time.
	snapRecordEdges = 1 << 16
	// snapName names a snapshot file by the LSN it covers. Its suffix keeps
	// it clear of Open's segment (.wal) and temporary (.tmp) cases.
	snapName = "snap-%016x.snap"

	defaultSegmentBytes = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a Log. The zero value selects the defaults.
type Options struct {
	// SegmentBytes is the rotation threshold. Default 64 MiB.
	SegmentBytes int
	// NoSync skips the fsync after each append. Acknowledged batches then
	// survive process crashes but not host crashes; tests and bulk loads
	// use it.
	NoSync bool
	// FS is the filesystem seam every file operation routes through. Nil
	// selects the real filesystem (fault.OS); tests and chaos runs install
	// a fault-injecting wrapper (fault.NewFS) to fail exact operations.
	FS fault.FS
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if o.FS == nil {
		o.FS = fault.OS
	}
	return o
}

// Stats is a snapshot of the log's counters.
type Stats struct {
	// LSN is the next record's log sequence number (= records ever
	// appended, including compacted ones).
	LSN uint64
	// SnapshotLSN is the LSN the latest committed snapshot covers (records
	// below it are reconstructible from the snapshot alone); zero when no
	// snapshot exists.
	SnapshotLSN uint64
	// Appends counts appended records; AppendedEdges the edges in them.
	Appends, AppendedEdges uint64
	// Bytes counts bytes written (headers included); Syncs counts fsyncs.
	Bytes, Syncs uint64
	// RawBytes counts the payload bytes appended records would have cost in
	// the raw 8-bytes-per-edge format; WrittenBytes counts the payload
	// bytes actually stored after wire-block compression. RawBytes over
	// WrittenBytes is the observable WAL compression ratio.
	RawBytes, WrittenBytes uint64
	// Segments is the number of live segment files.
	Segments int
	// Snapshots counts snapshots committed by this process.
	Snapshots uint64
	// Wedges counts append failures that wedged the log; Recoveries counts
	// successful TryRecover calls that un-wedged it.
	Wedges, Recoveries uint64
}

// segment is one on-disk log file holding records [first, first+count).
type segment struct {
	first uint64
	count uint64
	path  string
}

// Log is a segmented write-ahead edge log. Append/Sync/Close serialize on
// an internal mutex; one Log owns its directory.
type Log struct {
	dir string
	opt Options
	fs  fault.FS

	mu       sync.Mutex
	f        fault.File // current append segment; nil until first Append
	segOff   int64      // valid bytes in the current segment
	lsn      uint64     // next record LSN
	segs     []segment
	snapLSN  uint64
	snapPath string
	hasSnap  bool
	buf      []byte // append scratch
	stats    Stats
	closed   bool
	wedged   error // set by a failed append; fails every later Append
}

// Open scans dir (creating it if needed), validates every live segment,
// repairs a torn tail in the final segment by truncating it, and positions
// the log to append after the last valid record. Damage a torn write cannot
// explain returns ErrCorrupt.
func Open(dir string, opt Options) (*Log, error) {
	l := &Log{dir: dir, opt: opt.withDefaults()}
	l.fs = l.opt.FS
	if err := l.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	entries, err := l.fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(dir, name)
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// A snapshot that crashed before its rename; never referenced.
			l.fs.Remove(path)
		case strings.HasSuffix(name, ".wal"):
			var first uint64
			if _, err := fmt.Sscanf(name, "%016x.wal", &first); err != nil {
				return nil, fmt.Errorf("%w: unparseable segment name %q", ErrCorrupt, name)
			}
			l.segs = append(l.segs, segment{first: first, path: path})
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".cbin"):
			// Booting past it would lose its state: refuse instead.
			return nil, fmt.Errorf("wal: %s is a .cbin snapshot, a format this log no longer reads; see DESIGN.md §11", path)
		case strings.HasPrefix(name, "snap-"):
			var at uint64
			if _, err := fmt.Sscanf(name, snapName, &at); err != nil {
				return nil, fmt.Errorf("%w: unparseable snapshot name %q", ErrCorrupt, name)
			}
			// Two snapshots mean CommitSnapshot's removal of the older one
			// failed or was cut short; the newer one supersedes it.
			if l.hasSnap && at < l.snapLSN {
				l.fs.Remove(path)
				continue
			}
			if l.hasSnap {
				l.fs.Remove(l.snapPath)
			}
			l.hasSnap, l.snapLSN, l.snapPath = true, at, path
		}
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].first < l.segs[j].first })

	// Validate the chain. Only the last segment may end in a torn record —
	// or lack its header entirely (a crash between rotate's file creation
	// and the 16-byte header write).
	for i := range l.segs {
		s := &l.segs[i]
		last := i == len(l.segs)-1
		first, count, validEnd, err := scanSegment(l.fs, s.path, last, nil)
		if last && errors.Is(err, errTornHeader) {
			// Torn rotation: nothing in a headerless segment was ever
			// acknowledged. Discard it; the previous segment (validated
			// above, so valid end to end) carries the tail.
			if rerr := l.fs.Remove(s.path); rerr != nil {
				return nil, fmt.Errorf("wal: removing torn segment %s: %w", s.path, rerr)
			}
			l.segs = l.segs[:i]
			if i > 0 {
				st, serr := l.fs.Stat(l.segs[i-1].path)
				if serr != nil {
					return nil, fmt.Errorf("wal: %w", serr)
				}
				l.segOff = st.Size()
			}
			break
		}
		if err != nil {
			return nil, err
		}
		if first != s.first {
			return nil, fmt.Errorf("%w: segment %s header LSN %d does not match its name", ErrCorrupt, s.path, first)
		}
		if i > 0 && l.segs[i-1].first+l.segs[i-1].count != s.first {
			return nil, fmt.Errorf("%w: LSN gap between %s and %s", ErrCorrupt, l.segs[i-1].path, s.path)
		}
		s.count = count
		if last {
			if st, err := l.fs.Stat(s.path); err == nil && st.Size() > validEnd {
				if err := l.fs.Truncate(s.path, validEnd); err != nil {
					return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", s.path, err)
				}
			}
			l.segOff = validEnd
		}
	}
	if n := len(l.segs); n > 0 {
		l.lsn = l.segs[n-1].first + l.segs[n-1].count
		// Coverage: everything from the snapshot LSN forward must be
		// replayable. (Without a snapshot the chain must start at 0.)
		floor := uint64(0)
		if l.hasSnap {
			floor = l.snapLSN
		}
		if l.segs[0].first > floor {
			return nil, fmt.Errorf("%w: records [%d, %d) missing below first segment", ErrCorrupt, floor, l.segs[0].first)
		}
		// Reopen the last segment for appends unless it is already full.
		if l.segOff < int64(l.opt.SegmentBytes) {
			f, err := l.fs.OpenFile(l.segs[n-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			l.f = f
		}
	} else if l.hasSnap {
		// Snapshot present, tail fully compacted: appends resume at the
		// snapshot's LSN.
		l.lsn = l.snapLSN
	}
	return l, nil
}

// LSN returns the next record's log sequence number.
func (l *Log) LSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.LSN = l.lsn
	st.SnapshotLSN = l.snapLSN
	st.Segments = len(l.segs)
	return st
}

// Append durably appends one record holding edges and returns its LSN. The
// record is fsynced before Append returns unless Options.NoSync is set.
// Empty batches append nothing and return the current LSN.
func (l *Log) Append(edges []graph.Edge) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("wal: log closed")
	}
	if l.wedged != nil {
		return 0, l.wedged
	}
	if len(edges) == 0 {
		return l.lsn, nil
	}
	if 8*len(edges)+recHeader > maxRecordBytes {
		return 0, fmt.Errorf("wal: batch of %d edges exceeds the %d-byte record bound", len(edges), maxRecordBytes)
	}
	// Encode into the retained scratch: no per-append allocation once it
	// has grown to the workload.
	b := encodeRecord(l.buf[:0], edges)
	l.buf = b
	if l.f == nil || (l.segOff+int64(len(b)) > int64(l.opt.SegmentBytes) && l.segOff > segHeader) {
		// A failed rotation wedges just like a failed write: the disk is
		// refusing the operations the durability contract depends on, and
		// retrying blind on the next Append would only mask it from the
		// degraded-mode machinery watching Wedged().
		if err := l.rotate(); err != nil {
			return 0, l.wedge(err)
		}
	}
	if _, err := l.f.Write(b); err != nil {
		return 0, l.wedge(err)
	}
	if !l.opt.NoSync {
		if err := l.f.Sync(); err != nil {
			return 0, l.wedge(err)
		}
		l.stats.Syncs++
	}
	l.segOff += int64(len(b))
	lsn := l.lsn
	l.lsn++
	l.segs[len(l.segs)-1].count++
	l.stats.Appends++
	l.stats.AppendedEdges += uint64(len(edges))
	l.stats.Bytes += uint64(len(b))
	l.stats.RawBytes += uint64(8 * len(edges))
	l.stats.WrittenBytes += uint64(len(b) - recHeader)
	return lsn, nil
}

// encodeRecord appends one record holding edges to b: the 8-byte header is
// reserved up front, the wire block appends in place behind it, and the
// length and CRC (over the compressed payload) are backfilled.
func encodeRecord(b []byte, edges []graph.Edge) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0)
	b = wire.AppendBlock(b, edges)
	payload := b[start+recHeader:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(payload, castagnoli))
	return b
}

// appendHeader appends the 16-byte file header whose first record is first.
func appendHeader(b []byte, first uint64) []byte {
	b = append(b, segMagic...)
	b = binary.LittleEndian.AppendUint32(b, segVersion)
	return binary.LittleEndian.AppendUint64(b, first)
}

// wedge fails the log permanently after a write or sync error. A partial
// write leaves garbage at segOff; appending past it would put later
// acknowledged records beyond an invalid record, exactly where the next
// Open's torn-tail repair truncates — silent loss of acked data. Refusing
// every subsequent Append (fail-stop) keeps the invariant that everything
// acknowledged sits in the valid prefix; the partial bytes are trimmed
// best-effort so a clean process exit leaves no torn tail at all. Called
// with l.mu held; returns the wedged error for the failing Append.
func (l *Log) wedge(cause error) error {
	l.wedged = fmt.Errorf("wal: log wedged by append failure: %w", cause)
	l.stats.Wedges++
	if l.f != nil {
		l.f.Truncate(l.segOff)
	}
	return l.wedged
}

// Wedged reports the append failure that wedged the log, or nil when the
// log is healthy. The serving layer polls it to drive degraded mode.
func (l *Log) Wedged() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wedged
}

// TryRecover attempts to clear a wedged log so appends can resume: the
// wedged segment is trimmed to its valid prefix and the log rotates to a
// fresh segment, proving the filesystem accepts writes again. On success
// the wedge clears and the next Append continues the LSN sequence —
// nothing acknowledged was lost, because a wedged log never acknowledged
// anything past the valid prefix. On failure the log stays wedged and
// TryRecover can be called again. A healthy log returns nil immediately.
func (l *Log) TryRecover() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log closed")
	}
	if l.wedged == nil {
		return nil
	}
	// Re-trim by path before anything else: wedge's own trim ran on the
	// descriptor that had just failed, so it cannot be trusted to have
	// stuck. If partial bytes survived here, rotating would strand them in
	// a soon-to-be non-final segment, which the next Open would have to
	// call corruption rather than a repairable torn tail.
	if l.f != nil {
		path := l.segs[len(l.segs)-1].path
		if err := l.fs.Truncate(path, l.segOff); err != nil {
			return fmt.Errorf("wal: recovery truncate: %w", err)
		}
		if err := syncFile(l.fs, path); err != nil {
			return fmt.Errorf("wal: recovery: %w", err)
		}
		l.f.Close() // the fd that failed; its error no longer matters
		l.f = nil
	}
	if err := l.rotate(); err != nil {
		return err
	}
	l.wedged = nil
	l.stats.Recoveries++
	return nil
}

// rotate seals the current segment (if any) and opens a fresh one whose
// first record will be the current LSN. Called with l.mu held.
func (l *Log) rotate() error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.f = nil
	}
	path := filepath.Join(l.dir, fmt.Sprintf("%016x.wal", l.lsn))
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(appendHeader(nil, l.lsn)); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if !l.opt.NoSync {
		// Persist the directory entry before any record in this segment is
		// acknowledged: a record's own fsync makes its bytes durable, but on
		// power loss the file itself can vanish if the directory was never
		// synced, losing the whole acked segment.
		if err := syncDir(l.fs, l.dir); err != nil {
			f.Close()
			return err
		}
	}
	l.f = f
	l.segOff = segHeader
	l.stats.Bytes += segHeader
	// Reuse a same-named segment slot if the previous boot left an empty
	// tail segment at this LSN (O_TRUNC above already emptied the file).
	if n := len(l.segs); n > 0 && l.segs[n-1].first == l.lsn && l.segs[n-1].count == 0 {
		l.segs[n-1].path = path
		return nil
	}
	l.segs = append(l.segs, segment{first: l.lsn, path: path})
	return nil
}

// Sync forces the current segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	l.stats.Syncs++
	return l.f.Sync()
}

// Close seals the log: the current segment is synced and closed. Close is
// idempotent; Append after Close fails.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// LatestSnapshot returns the newest committed snapshot's covering LSN and
// path, if one exists.
func (l *Log) LatestSnapshot() (lsn uint64, path string, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapLSN, l.snapPath, l.hasSnap
}

// CommitSnapshot atomically installs a snapshot covering every record below
// lsn and compacts the log. The snapshot holds edges — the server passes
// its live spanning forest — in the segment layout: a header whose first
// LSN is lsn, then CRC'd wire-block records of at most snapRecordEdges
// edges. It is written to a temporary file, fsynced and renamed into place;
// only then are the snapshot and the fully-covered segments it supersedes
// deleted. A crash or failure at any point leaves either the old or the new
// snapshot installed, never neither.
func (l *Log) CommitSnapshot(lsn uint64, edges []graph.Edge) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errors.New("wal: log closed")
	}
	if lsn > l.lsn {
		l.mu.Unlock()
		return fmt.Errorf("wal: snapshot LSN %d beyond log end %d", lsn, l.lsn)
	}
	dir := l.dir
	l.mu.Unlock()

	// Write and persist the snapshot outside the lock: appends continue
	// while the O(n) state dump runs.
	final := filepath.Join(dir, fmt.Sprintf(snapName, lsn))
	tmp := final + ".tmp"
	if err := l.writeSnapshot(tmp, lsn, edges); err != nil {
		l.fs.Remove(tmp)
		return err
	}
	if err := l.fs.Rename(tmp, final); err != nil {
		l.fs.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.fs, dir); err != nil {
		// The rename may not be durable, so the old snapshot stays
		// installed and no segment is pruned. The new file is complete and
		// fsynced; if it survives, the next Open prefers it, as it does any
		// newer snapshot.
		return err
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.hasSnap && l.snapPath != final {
		l.fs.Remove(l.snapPath) // on failure, the next Open drops it
	}
	l.hasSnap, l.snapLSN, l.snapPath = true, lsn, final
	l.stats.Snapshots++
	// Drop segments every record of which the snapshot covers, oldest
	// first, keeping the open append segment alive regardless. A failed
	// Remove ends the pruning: deleting past it would leave an LSN gap in
	// the chain, which Open refuses as corruption.
	live := l.segs[:0]
	for i, s := range l.segs {
		isCurrent := l.f != nil && i == len(l.segs)-1
		if len(live) == 0 && !isCurrent && s.first+s.count <= lsn && l.fs.Remove(s.path) == nil {
			continue
		}
		live = append(live, s)
	}
	l.segs = live
	return nil
}

// writeSnapshot writes a snapshot file at path and fsyncs it, whatever
// Options.NoSync says: the rename that installs it must never expose a
// file whose bytes are not durable.
func (l *Log) writeSnapshot(path string, lsn uint64, edges []graph.Edge) error {
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	_, err = f.Write(appendHeader(nil, lsn))
	var b []byte
	for err == nil && len(edges) > 0 {
		k := min(len(edges), snapRecordEdges)
		b = encodeRecord(b[:0], edges[:k])
		edges = edges[k:]
		_, err = f.Write(b)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

func syncFile(fsys fault.FS, path string) error {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// syncDir makes dir's entries (a new segment, a renamed snapshot) durable.
// A platform that cannot fsync a directory reports EINVAL or ENOTSUP, and
// rename durability is then best effort; every other error is returned.
func syncDir(fsys fault.FS, dir string) error {
	err := fsys.SyncDir(dir)
	if err == nil || errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		return nil
	}
	return fmt.Errorf("wal: %w", err)
}
