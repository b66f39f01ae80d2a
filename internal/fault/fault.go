// Package fault is the deterministic fault-injection layer behind the
// serving stack's robustness tests and chaos runs (DESIGN.md §15). It has
// three parts: a seeded Schedule that decides, per named operation, when a
// fault fires and what it looks like; an FS seam the write-ahead log's
// file operations route through so disk faults (write errors, short
// writes, ENOSPC, failed fsyncs and renames) can be injected at exact
// operation counts; and a net.Conn wrapper that injects resets, latency,
// and partial frames into the TCP ingest path.
//
// Schedules are reproducible by construction: every trigger is either a
// pure function of the per-operation counter (`at=N`, `every=N`) or drawn
// from the schedule's own seeded generator (`after=K:p=P`), so two
// processes running the same spec against the same operation sequence
// inject the same faults. That is what makes chaos runs assertable — the
// acked-LSN set after a seeded crash schedule is a deterministic quantity,
// not a flake.
//
// A schedule is usually built from a spec string (ParseSchedule), which is
// how the CLI and CI thread fault plans into a running server:
//
//	wal.sync:at=25:err=EIO;conn.write:at=40:reset
//
// fires EIO on the 25th WAL fsync and resets the ingest connection on its
// 40th write. See ParseSchedule for the grammar.
package fault

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Action describes one injected fault. The zero value (no error, no
// delay) is "no fault"; rules always carry at least an error or a delay.
type Action struct {
	// Err is the error the faulted operation returns. For file writes a
	// non-nil Err with Short >= 0 produces a short write: Short bytes
	// reach the file, then Err surfaces — the exact shape of a mid-write
	// ENOSPC or a torn write at a crash boundary.
	Err error
	// Short, when >= 0 and the op is a write, bounds how many bytes are
	// written before Err fires. -1 writes nothing.
	Short int
	// Delay is slept before the operation proceeds (or fails).
	Delay time.Duration
	// Reset, on a conn operation, hard-closes the connection after the
	// (possibly partial) operation, surfacing ECONNRESET to the peer.
	Reset bool
}

// rule is one armed fault: a trigger over an operation counter plus the
// action to inject. at/every/after are mutually exclusive triggers.
type rule struct {
	op    string
	at    uint64  // fire exactly on the Nth op (1-based); 0 = unset
	every uint64  // fire on every Nth op; 0 = unset
	after uint64  // ops > after fire with probability p
	p     float64 // probability for the after trigger
	limit uint64  // max fires (0 = at: once, otherwise unlimited)
	fired uint64
	act   Action
}

// Schedule is a set of armed fault rules over named operations. All
// methods are safe for concurrent use; the per-operation counters and the
// probability stream are serialized under one mutex so a given operation
// interleaving always sees the same injections.
type Schedule struct {
	mu    sync.Mutex
	rng   *rand.Rand
	count map[string]uint64
	rules []rule
}

// NewSchedule returns an empty schedule whose probabilistic triggers draw
// from a generator seeded with seed.
func NewSchedule(seed uint64) *Schedule {
	return &Schedule{
		rng:   rand.New(rand.NewSource(int64(seed))),
		count: make(map[string]uint64),
	}
}

// FailAt arms act to fire exactly on the nth (1-based) occurrence of op.
func (s *Schedule) FailAt(op string, n uint64, act Action) *Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rules = append(s.rules, rule{op: op, at: n, limit: 1, act: act})
	return s
}

// FailEvery arms act to fire on every nth occurrence of op.
func (s *Schedule) FailEvery(op string, n uint64, act Action) *Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rules = append(s.rules, rule{op: op, every: n, act: act})
	return s
}

// FailAfterProb arms act to fire with probability p on each occurrence of
// op after the kth.
func (s *Schedule) FailAfterProb(op string, k uint64, p float64, act Action) *Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rules = append(s.rules, rule{op: op, after: k, p: p, act: act})
	return s
}

// Next advances op's counter and returns the action to inject for this
// occurrence, or nil when no rule fires. The first matching rule wins.
func (s *Schedule) Next(op string) *Action {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count[op]++
	n := s.count[op]
	for i := range s.rules {
		r := &s.rules[i]
		if r.op != op {
			continue
		}
		if r.limit > 0 && r.fired >= r.limit {
			continue
		}
		hit := false
		switch {
		case r.at > 0:
			hit = n == r.at
		case r.every > 0:
			hit = n%r.every == 0
		case r.p > 0:
			hit = n > r.after && s.rng.Float64() < r.p
		}
		if hit {
			r.fired++
			act := r.act
			return &act
		}
	}
	return nil
}

// Count returns how many times op has occurred so far.
func (s *Schedule) Count(op string) uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count[op]
}

// HasOp reports whether any rule is armed for an operation with the given
// prefix — the conn-wrapping path uses it to skip wrapping entirely when a
// schedule only carries WAL rules.
func (s *Schedule) HasOp(prefix string) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.rules {
		if strings.HasPrefix(r.op, prefix) {
			return true
		}
	}
	return false
}

// errByName maps the spec grammar's error names onto real errno values, so
// injected faults are indistinguishable from the OS's own.
var errByName = map[string]error{
	"EIO":        syscall.EIO,
	"ENOSPC":     syscall.ENOSPC,
	"EACCES":     syscall.EACCES,
	"EPIPE":      syscall.EPIPE,
	"ECONNRESET": syscall.ECONNRESET,
	"ETIMEDOUT":  syscall.ETIMEDOUT,
}

// seamOps is every operation a seam consults the schedule for: the FS
// wrapper's keys and the conn wrapper's.
var seamOps = map[string]bool{
	OpWALOpen: true, OpWALWrite: true, OpWALSync: true, OpWALRename: true,
	OpWALRemove: true, OpWALTruncate: true, OpWALMkdir: true,
	OpWALReadFile: true, OpWALReadDir: true, OpWALStat: true, OpWALSyncDir: true,
	OpConnRead: true, OpConnWrite: true,
}

// ParseSchedule builds a schedule from a spec string: semicolon-separated
// rules, each a colon-separated operation name followed by trigger and
// action fields:
//
//	rule    := op (":" field)*
//	field   := "at=" N | "every=" N | "after=" K | "p=" F | "limit=" N
//	         | "err=" NAME | "short=" N | "delay=" DUR | "reset"
//	special := "seed=" N            (standalone rule; seeds the generator)
//
// Operation names are dotted: the WAL's file seam uses wal.open, wal.write,
// wal.sync, wal.rename, wal.remove, wal.truncate, wal.readfile, wal.readdir,
// wal.mkdir, wal.stat, wal.syncdir; the conn wrapper uses conn.read and conn.write. A
// rule naming any other operation is rejected.
// Error names are EIO, ENOSPC, EACCES, EPIPE, ECONNRESET, ETIMEDOUT.
// A rule with no explicit action defaults to err=EIO (reset for conn ops).
//
//	wal.sync:at=25:err=EIO
//	wal.write:after=100:p=0.01:err=ENOSPC
//	wal.write:at=5:short=3:err=ENOSPC
//	conn.write:at=40:reset
//	conn.read:every=50:delay=20ms
//	seed=42;wal.sync:after=10:p=0.25
func ParseSchedule(spec string) (*Schedule, error) {
	seed := uint64(1)
	var rules []rule
	for _, raw := range strings.Split(spec, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		fields := strings.Split(raw, ":")
		if v, ok := strings.CutPrefix(fields[0], "seed="); ok && len(fields) == 1 {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q: %v", v, err)
			}
			seed = n
			continue
		}
		r := rule{op: fields[0], act: Action{Short: -1}}
		if !seamOps[r.op] {
			// A rule on an operation no seam consults would never fire, and
			// a chaos run armed with it would pass having injected nothing.
			return nil, fmt.Errorf("fault: rule %q: unknown operation %q", raw, r.op)
		}
		hasShort := false
		for _, f := range fields[1:] {
			key, val, hasVal := strings.Cut(f, "=")
			switch key {
			case "at", "every", "after", "limit":
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil || (key != "after" && n == 0) {
					return nil, fmt.Errorf("fault: rule %q: bad %s=%q", raw, key, val)
				}
				switch key {
				case "at":
					r.at, r.limit = n, 1
				case "every":
					r.every = n
				case "after":
					r.after = n
				case "limit":
					r.limit = n
				}
			case "p":
				p, err := strconv.ParseFloat(val, 64)
				if err != nil || p <= 0 || p > 1 {
					return nil, fmt.Errorf("fault: rule %q: bad p=%q (want (0, 1])", raw, val)
				}
				r.p = p
			case "err":
				e, ok := errByName[val]
				if !ok {
					return nil, fmt.Errorf("fault: rule %q: unknown error %q", raw, val)
				}
				r.act.Err = e
			case "short":
				n, err := strconv.ParseUint(val, 10, 31)
				if err != nil {
					return nil, fmt.Errorf("fault: rule %q: bad short=%q", raw, val)
				}
				r.act.Short = int(n)
				hasShort = true
			case "delay":
				d, err := time.ParseDuration(val)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("fault: rule %q: bad delay=%q", raw, val)
				}
				r.act.Delay = d
			case "reset":
				if hasVal {
					return nil, fmt.Errorf("fault: rule %q: reset takes no value", raw)
				}
				r.act.Reset = true
			default:
				return nil, fmt.Errorf("fault: rule %q: unknown field %q", raw, f)
			}
		}
		if r.at == 0 && r.every == 0 && r.p == 0 {
			return nil, fmt.Errorf("fault: rule %q needs a trigger (at=, every=, or after=/p=)", raw)
		}
		if r.p > 0 && r.at+r.every > 0 {
			return nil, fmt.Errorf("fault: rule %q mixes count and probability triggers", raw)
		}
		if r.act.Err == nil && r.act.Delay == 0 && !r.act.Reset {
			// Default action: an error for file ops, a reset for conn ops —
			// a bare trigger should fault, not silently no-op.
			if strings.HasPrefix(r.op, "conn.") {
				r.act.Reset = true
			} else {
				r.act.Err = syscall.EIO
			}
		}
		if hasShort && r.act.Err == nil {
			r.act.Err = syscall.ENOSPC
		}
		rules = append(rules, r)
	}
	s := NewSchedule(seed)
	s.rules = rules
	return s, nil
}
