// Package obs is the unified observability layer: a dependency-free
// metrics registry shared by every subsystem of the store.
//
// Three metric kinds cover the engine's needs:
//
//   - Counter: an owned, monotonically increasing atomic (hot-path
//     increments are one atomic add).
//   - Gauge / counter funcs: callbacks evaluated at snapshot time, used
//     to re-export the per-subsystem Stats() counters that already exist
//     without touching their hot paths.
//   - Histogram: a concurrent log-bucketed distribution reusing
//     internal/histogram's bucket layout with atomic counts (recording is
//     a handful of atomic adds; percentiles are computed at snapshot
//     time).
//
// Metrics are identified by a dot-separated name whose first segment is
// the owning subsystem ("ssd.bytes_written") plus an optional label set
// ({device: ssd0}). Snapshot() returns a stable, sorted,
// JSON-serializable view; see METRICS.md for the full reference of
// metrics the engine exports.
//
// Concurrency: Counter.Add and Histogram.Record are safe from any
// goroutine. Registration and Snapshot take the registry mutex; gauge
// and counter funcs run under it and must not re-enter the registry.
//
// Disabled operation: every method is nil-safe. A nil *Registry returns
// nil metric handles, and Add/Record on nil handles are no-ops that
// compile to a pointer test, so a handle left unregistered (a replica
// counter of an unreplicated router, say) costs nothing on the hot path.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/histogram"
)

// Type discriminates metric kinds in a Snapshot.
type Type string

// Metric kinds.
const (
	TypeCounter   Type = "counter"
	TypeGauge     Type = "gauge"
	TypeHistogram Type = "histogram"
)

// Desc names and documents one metric at registration time.
type Desc struct {
	// Name is dot-separated with the owning subsystem first, e.g.
	// "vs.gc_runs". Required.
	Name string
	// Help is a one-line description (surfaced in snapshots and
	// METRICS.md).
	Help string
	// Unit is the value's unit ("ops", "bytes", "ns", "ratio", ...).
	Unit string
	// Labels distinguish instances of the same metric (e.g. one series
	// per SSD: {device: ssd1}). May be nil.
	Labels map[string]string
}

// key is the canonical identity: name plus sorted labels.
func (d Desc) key() string {
	if len(d.Labels) == 0 {
		return d.Name
	}
	ks := make([]string, 0, len(d.Labels))
	for k := range d.Labels {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	var b strings.Builder
	b.WriteString(d.Name)
	for _, k := range ks {
		fmt.Fprintf(&b, "{%s=%s}", k, d.Labels[k])
	}
	return b.String()
}

// Counter is a monotonically increasing metric owned by the registry.
// The nil Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a concurrent distribution over non-negative int64 samples
// using internal/histogram's log-linear buckets (<1.6% relative error).
// The nil Histogram is a no-op.
type Histogram struct {
	counts []atomic.Int64 // histogram.NumBuckets
	total  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // math.MaxInt64 when empty
	max    atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{counts: make([]atomic.Int64, histogram.NumBuckets)}
	h.min.Store(math.MaxInt64)
	return h
}

// Record adds one sample. Negative samples clamp to zero.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[histogram.BucketIndex(v)].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of samples recorded (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// value summarizes the histogram. Concurrent Records may land between
// bucket reads; each read is individually consistent, which is enough
// for monitoring.
func (h *Histogram) value() *HistogramValue {
	v := &HistogramValue{Count: h.total.Load(), Max: h.max.Load()}
	if v.Count == 0 {
		return v
	}
	if m := h.min.Load(); m != math.MaxInt64 {
		v.Min = m
	}
	v.Sum = h.sum.Load()
	v.Mean = float64(v.Sum) / float64(v.Count)
	pct := func(p float64) int64 {
		rank := int64(p / 100 * float64(v.Count))
		if rank < 1 {
			rank = 1
		}
		var seen int64
		for b := range h.counts {
			seen += h.counts[b].Load()
			if seen >= rank {
				u := histogram.BucketUpper(b)
				if u > v.Max {
					u = v.Max
				}
				return u
			}
		}
		return v.Max
	}
	v.P50, v.P99, v.P999 = pct(50), pct(99), pct(99.9)
	return v
}

// HistogramValue is the snapshot form of a Histogram.
type HistogramValue struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	P50   int64   `json:"p50"`
	P99   int64   `json:"p99"`
	P999  int64   `json:"p999"`
}

// entry is one registered metric.
type entry struct {
	desc      Desc
	typ       Type
	counter   *Counter
	hist      *Histogram
	gaugeFn   func() float64
	counterFn func() int64
}

// Registry holds named metrics. Create with NewRegistry; the nil
// *Registry is a valid disabled registry (all methods no-op).
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	keys    map[string]*entry
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{keys: make(map[string]*entry)}
}

func (r *Registry) add(e *entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := e.desc.key()
	if _, dup := r.keys[k]; dup {
		panic("obs: duplicate metric " + k)
	}
	r.keys[k] = e
	r.entries = append(r.entries, e)
}

// Counter registers and returns an owned counter. Returns nil (a no-op
// handle) on a nil registry.
func (r *Registry) Counter(d Desc) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.add(&entry{desc: d, typ: TypeCounter, counter: c})
	return c
}

// Histogram registers and returns a concurrent histogram. Returns nil (a
// no-op handle) on a nil registry.
func (r *Registry) Histogram(d Desc) *Histogram {
	if r == nil {
		return nil
	}
	h := newHistogram()
	r.add(&entry{desc: d, typ: TypeHistogram, hist: h})
	return h
}

// GaugeFunc registers a gauge whose value is read by fn at snapshot
// time. No-op on a nil registry.
func (r *Registry) GaugeFunc(d Desc, fn func() float64) {
	if r == nil {
		return
	}
	r.add(&entry{desc: d, typ: TypeGauge, gaugeFn: fn})
}

// CounterFunc registers a counter whose cumulative value is read by fn
// at snapshot time — the bridge to subsystems that already keep their
// own atomic counters. No-op on a nil registry.
func (r *Registry) CounterFunc(d Desc, fn func() int64) {
	if r == nil {
		return
	}
	r.add(&entry{desc: d, typ: TypeCounter, counterFn: fn})
}

// Metric is one metric's snapshot row.
type Metric struct {
	Name   string            `json:"name"`
	Type   Type              `json:"type"`
	Unit   string            `json:"unit,omitempty"`
	Help   string            `json:"help,omitempty"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value carries counter and gauge readings (for histograms it is the
	// sample count, so Sum over a histogram series is meaningful).
	Value float64         `json:"value"`
	Hist  *HistogramValue `json:"hist,omitempty"`
}

// Snapshot is a point-in-time, JSON-serializable view of a registry,
// sorted by metric name then labels for stable output.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot reads every metric. Safe concurrently with hot-path updates;
// a nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{Metrics: make([]Metric, 0, len(r.entries))}
	for _, e := range r.entries {
		m := Metric{Name: e.desc.Name, Type: e.typ, Unit: e.desc.Unit, Help: e.desc.Help, Labels: e.desc.Labels}
		switch {
		case e.counter != nil:
			m.Value = float64(e.counter.Value())
		case e.counterFn != nil:
			m.Value = float64(e.counterFn())
		case e.gaugeFn != nil:
			m.Value = e.gaugeFn()
		case e.hist != nil:
			m.Hist = e.hist.value()
			m.Value = float64(m.Hist.Count)
		}
		s.Metrics = append(s.Metrics, m)
	}
	s.Sort()
	return s
}

// Sort orders metrics by name then label set — the invariant every
// Snapshot carries. Callers that merge snapshots (the sharding router)
// restore it after appending.
func (s *Snapshot) Sort() {
	sort.Slice(s.Metrics, func(a, b int) bool {
		if s.Metrics[a].Name != s.Metrics[b].Name {
			return s.Metrics[a].Name < s.Metrics[b].Name
		}
		return labelKey(s.Metrics[a].Labels) < labelKey(s.Metrics[b].Labels)
	})
}

func labelKey(labels map[string]string) string {
	return Desc{Labels: labels}.key()
}

// Get returns the metric with the given name and exact label set.
func (s Snapshot) Get(name string, labels map[string]string) (Metric, bool) {
	want := Desc{Name: name, Labels: labels}.key()
	for _, m := range s.Metrics {
		if (Desc{Name: m.Name, Labels: m.Labels}).key() == want {
			return m, true
		}
	}
	return Metric{}, false
}

// Value returns the value of the uniquely named metric (any label set);
// ok is false when the name is absent or ambiguous across label sets.
func (s Snapshot) Value(name string) (v float64, ok bool) {
	n := 0
	for _, m := range s.Metrics {
		if m.Name == name {
			v, n = m.Value, n+1
		}
	}
	return v, n == 1
}

// Sum adds the values of every series with the given name (e.g. a
// per-device counter summed across devices).
func (s Snapshot) Sum(name string) float64 {
	var t float64
	for _, m := range s.Metrics {
		if m.Name == name {
			t += m.Value
		}
	}
	return t
}

// Names returns the sorted, de-duplicated metric names in the snapshot.
func (s Snapshot) Names() []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range s.Metrics {
		if !seen[m.Name] {
			seen[m.Name] = true
			out = append(out, m.Name)
		}
	}
	sort.Strings(out)
	return out
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() string {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(err) // static types: cannot fail
	}
	return string(b)
}

// Text renders the snapshot as aligned "name{labels} value" lines — the
// human-readable form used by prism-cli's metrics command.
func (s Snapshot) Text() string {
	var b strings.Builder
	for _, m := range s.Metrics {
		id := m.Name
		if len(m.Labels) > 0 {
			id = Desc{Name: m.Name, Labels: m.Labels}.key()
		}
		if m.Hist != nil {
			fmt.Fprintf(&b, "%-40s count=%d mean=%.1f p50=%d p99=%d p99.9=%d max=%d\n",
				id, m.Hist.Count, m.Hist.Mean, m.Hist.P50, m.Hist.P99, m.Hist.P999, m.Hist.Max)
			continue
		}
		if m.Value == math.Trunc(m.Value) && math.Abs(m.Value) < 1e15 {
			fmt.Fprintf(&b, "%-40s %d %s\n", id, int64(m.Value), m.Unit)
		} else {
			fmt.Fprintf(&b, "%-40s %.4f %s\n", id, m.Value, m.Unit)
		}
	}
	return b.String()
}
