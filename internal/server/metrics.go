package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a small Prometheus-text-format metrics registry: counters,
// function-backed gauges/counters (for values the system already maintains,
// like StreamStats and PoolStats), and fixed-bucket histograms. It exists
// so the serving layer observes the engine without pulling a client library
// into a stdlib-only module; the exposition format is the stable contract,
// not the implementation.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
}

// metric is one exposition family member: a name, optional {label} set
// (preformatted), help text, a type, and a sample function.
type metric struct {
	name   string
	labels string // preformatted, e.g. `{handler="update"}`, or ""
	help   string
	typ    string // "counter" | "gauge" | "histogram"
	write  func(w io.Writer, name, labels string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket histogram in the Prometheus cumulative
// bucket style, plus a _sum and _count pair.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomicFloat
}

// atomicFloat accumulates float64 additions via CAS on bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) Add(x float64) {
	for {
		old := a.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + x)
		if a.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (a *atomicFloat) Load() float64 { return math.Float64frombits(a.bits.Load()) }

// Observe records one sample; a nil histogram discards it.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	for i, b := range h.bounds {
		if x <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	h.sum.Add(x)
}

// register appends m under the lock, keeping the slice sorted by (name,
// labels) so the exposition groups families deterministically.
func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, m)
	sort.SliceStable(r.metrics, func(i, j int) bool {
		if r.metrics[i].name != r.metrics[j].name {
			return r.metrics[i].name < r.metrics[j].name
		}
		return r.metrics[i].labels < r.metrics[j].labels
	})
}

// Counter registers and returns a counter. labels is either empty or a
// preformatted label set such as `{handler="update"}`.
func (r *Registry) Counter(name, labels, help string) *Counter {
	c := &Counter{}
	r.register(metric{name: name, labels: labels, help: help, typ: "counter",
		write: func(w io.Writer, name, labels string) {
			fmt.Fprintf(w, "%s%s %d\n", name, labels, c.Value())
		}})
	return c
}

// CounterFunc registers a counter whose value is sampled from f at
// exposition time — the bridge for counters the engine already maintains
// (StreamStats, PoolStats, WAL stats).
func (r *Registry) CounterFunc(name, labels, help string, f func() uint64) {
	r.register(metric{name: name, labels: labels, help: help, typ: "counter",
		write: func(w io.Writer, name, labels string) {
			fmt.Fprintf(w, "%s%s %d\n", name, labels, f())
		}})
}

// GaugeFunc registers a gauge sampled from f at exposition time.
func (r *Registry) GaugeFunc(name, labels, help string, f func() float64) {
	r.register(metric{name: name, labels: labels, help: help, typ: "gauge",
		write: func(w io.Writer, name, labels string) {
			fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(f()))
		}})
}

// Histogram registers and returns a histogram with the given ascending
// upper bucket bounds (+Inf is implicit).
func (r *Registry) Histogram(name, labels, help string, bounds []float64) *Histogram {
	h := &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]atomic.Uint64, len(bounds))}
	r.register(metric{name: name, labels: labels, help: help, typ: "histogram",
		write: func(w io.Writer, name, labels string) {
			var cum uint64
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(labels, `le="`+formatFloat(b)+`"`), cum)
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(labels, `le="+Inf"`), h.count.Load())
			fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.sum.Load()))
			fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.count.Load())
		}})
	return h
}

// mergeLabels combines a preformatted label set with one extra pair.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(labels, "}") + "," + extra + "}"
}

func formatFloat(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return strconv.FormatFloat(x, 'f', -1, 64)
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// WriteText renders the registry in the Prometheus text exposition format,
// emitting one HELP/TYPE block per family even when several label sets
// share the family name.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	metrics := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	prev := ""
	for _, m := range metrics {
		if m.name != prev {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
			prev = m.name
		}
		m.write(w, m.name, m.labels)
	}
}

// ServeHTTP serves the exposition, making a Registry mountable at /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WriteText(w)
}
