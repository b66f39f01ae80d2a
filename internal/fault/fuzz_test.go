package fault

import (
	"slices"
	"strings"
	"testing"
)

// FuzzParseSchedule holds the schedule grammar to three properties: the
// parser never panics; every rejection is an error naming the package
// ("fault: ..."), which is how a bad CONNECTIT_FAULTS reaches the operator;
// every accepted rule names an operation a seam consults, so none is armed
// where it can never fire; and an accepted schedule answers Next and Count
// for its own operations, counting each occurrence once and firing only
// actions that fault.
func FuzzParseSchedule(f *testing.F) {
	for _, seed := range []string{
		// ParseSchedule's and the package's doc examples.
		"wal.sync:at=25:err=EIO;conn.write:at=40:reset",
		"wal.sync:at=25:err=EIO",
		"wal.write:after=100:p=0.01:err=ENOSPC",
		"wal.write:at=5:short=3:err=ENOSPC",
		"conn.write:at=40:reset",
		"conn.read:every=50:delay=20ms",
		"seed=42;wal.sync:after=10:p=0.25",
		// fault_test.go's accepted specs and its rejection table.
		"wal.sync:at=2:err=EIO;conn.write:at=3:reset;wal.write:at=1:short=4:err=ENOSPC",
		"wal.sync:at=1;conn.read:at=1",
		"seed=7;conn.read:at=1:delay=1ms",
		"wal.sync",
		"wal.sync:err=EIO",
		"wal.sync:at=0",
		"wal.sync:at=1:err=EWHAT",
		"wal.sync:at=1:p=0.5",
		"wal.sync:p=2:after=1",
		"wal.sync:at=1:bogus=3",
		"wal.sync:at=1:delay=-1s",
		"seed=x",
		"conn.write:at=1:reset=true",
		"wal.snyc:at=1",
		":at=1",
		"seed=5:at=1",
		// The directory-sync seam.
		"wal.syncdir:at=1:err=EIO",
	} {
		f.Add(seed)
	}
	consulted := []string{
		OpWALOpen, OpWALWrite, OpWALSync, OpWALRename, OpWALRemove,
		OpWALTruncate, OpWALMkdir, OpWALReadFile, OpWALReadDir, OpWALStat,
		OpWALSyncDir, OpConnRead, OpConnWrite,
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSchedule(spec)
		if err != nil {
			if s != nil {
				t.Fatalf("ParseSchedule(%q) returned a schedule with error %v", spec, err)
			}
			if !strings.HasPrefix(err.Error(), "fault: ") {
				t.Fatalf("ParseSchedule(%q): error %q lacks the fault: prefix", spec, err)
			}
			return
		}
		calls := make(map[string]uint64)
		for _, r := range s.rules {
			if !slices.Contains(consulted, r.op) {
				t.Fatalf("ParseSchedule(%q): accepted a rule on %q, which no seam consults", spec, r.op)
			}
		}
		for round := 0; round < 3; round++ {
			for _, r := range s.rules {
				if !s.HasOp(r.op) {
					t.Fatalf("ParseSchedule(%q): HasOp(%q) = false for an armed rule", spec, r.op)
				}
				act := s.Next(r.op)
				calls[r.op]++
				if act != nil && act.Err == nil && act.Delay == 0 && !act.Reset {
					t.Fatalf("ParseSchedule(%q): %s fired an action that faults nothing: %+v", spec, r.op, act)
				}
			}
		}
		for op, n := range calls {
			if got := s.Count(op); got != n {
				t.Fatalf("ParseSchedule(%q): Count(%q) = %d after %d calls", spec, op, got, n)
			}
		}
	})
}
