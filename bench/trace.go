package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// A span is one call the benchmark made into a layer, recorded from
// outside: the name is "<layer>.<call>", Parent indexes the span that
// caused it (-1 for a root) and Op ties the spans of one operation (one
// solve, one stream repetition, one frame) together.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int64  `json:"op"`
}

// maxSpans bounds the in-memory trace; spans past it are counted, not kept.
const maxSpans = 1 << 18

// tracer keeps spans in memory until the run ends. A nil or switched-off
// tracer records nothing, so the same code path serves the untraced
// end-to-end runs.
type tracer struct {
	on      bool
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// record adds a span whose start and end were observed elsewhere and
// returns its id, -1 when tracing is off or the trace is full.
func (t *tracer) record(name string, start, end time.Time, parent int, op int64) int {
	if t == nil || !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// start opens a span and returns its id, -1 when tracing is off.
func (t *tracer) start(name string, parent int, op int64) int {
	now := time.Now()
	return t.record(name, now, now, parent, op)
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns how long it took. Every
// measurement of a layer call goes through here, so the traced and the
// untraced run time the same code and differ only in the recording.
func (t *tracer) timed(name string, parent int, op int64, fn func()) time.Duration {
	id := t.start(name, parent, op)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

// selfTimes returns, per span, its duration minus the part of its own
// interval that its direct children cover. Children that overlap each other
// (concurrent calls) are merged first, so shared time is subtracted once;
// a child is clipped to its parent's interval.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			p := spans[s.Parent]
			lo, hi := max(s.StartNs, p.StartNs), min(s.EndNs, p.EndNs)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, end := int64(0), s.StartNs
		for _, c := range iv {
			if c[1] <= end {
				continue
			}
			covered += c[1] - max(c[0], end)
			end = c[1]
		}
		self[i] = s.EndNs - s.StartNs - covered
	}
	return self
}

// layerSelfMs sums self time by layer (the span name up to the first dot).
func layerSelfMs(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for i, d := range selfTimes(spans) {
		layer, _, _ := strings.Cut(spans[i].Name, ".")
		out[layer] += float64(d) / 1e6
	}
	return out
}

// all returns the spans recorded so far.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[:len(t.spans):len(t.spans)]
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}{t.dropped, t.all()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
