package bench

// Observability plumbing for the harness: experiments capture each
// engine's obs snapshot right before the store is closed, and the run
// loop can sample any metric over virtual time for Figure-17-style
// timelines of arbitrary counters.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
)

// MetricsSource is implemented by engines that expose an observability
// registry (today only the Prism adapter; baselines report no metrics).
type MetricsSource interface {
	Metrics() obs.Snapshot
}

// EngineMetrics is one captured snapshot, tagged with the engine and
// workload it came from.
type EngineMetrics struct {
	Engine   string         `json:"engine"`
	Workload string         `json:"workload,omitempty"`
	Snapshot obs.Snapshot   `json:"snapshot"`
	Timeline []MetricSample `json:"timeline,omitempty"`
}

// MetricSample is one sampler observation flattened to name->value sums
// (small enough to emit per-interval for every metric).
type MetricSample struct {
	NS     int64              `json:"ns"`
	Values map[string]float64 `json:"values"`
}

// MetricsCollector accumulates EngineMetrics across an experiment run.
// A nil collector ignores everything, so experiment code can call it
// unconditionally.
type MetricsCollector struct {
	mu       sync.Mutex
	captures []EngineMetrics
}

// Capture records store's snapshot (and timeline, if any) when the store
// implements MetricsSource; otherwise it is a no-op. Call before Close.
func (mc *MetricsCollector) Capture(store any, engineName, workload string, timeline []MetricSample) {
	if mc == nil {
		return
	}
	src, ok := store.(MetricsSource)
	if !ok {
		return
	}
	snap := src.Metrics()
	if len(snap.Metrics) == 0 && len(timeline) == 0 {
		return
	}
	mc.mu.Lock()
	mc.captures = append(mc.captures, EngineMetrics{
		Engine:   engineName,
		Workload: workload,
		Snapshot: snap,
		Timeline: timeline,
	})
	mc.mu.Unlock()
}

// Captures returns everything recorded so far, sorted by (engine,
// workload) for stable output.
func (mc *MetricsCollector) Captures() []EngineMetrics {
	if mc == nil {
		return nil
	}
	mc.mu.Lock()
	out := append([]EngineMetrics(nil), mc.captures...)
	mc.mu.Unlock()
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Engine != out[b].Engine {
			return out[a].Engine < out[b].Engine
		}
		return out[a].Workload < out[b].Workload
	})
	return out
}

// JSON renders all captures as one indented JSON document.
func (mc *MetricsCollector) JSON() string {
	doc := struct {
		Captures []EngineMetrics `json:"captures"`
	}{Captures: mc.Captures()}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return `{"error":"metrics marshal failed"}`
	}
	return string(b)
}

// OpenMetrics renders every capture's final snapshot in the Prometheus
// text exposition format, one block per capture tagged by a comment
// header (timelines are JSON-only).
func (mc *MetricsCollector) OpenMetrics() string {
	var b strings.Builder
	for _, c := range mc.Captures() {
		fmt.Fprintf(&b, "# capture engine=%q workload=%q\n", c.Engine, c.Workload)
		c.Snapshot.WriteOpenMetrics(&b)
	}
	return b.String()
}

// flattenSamples converts raw sampler output into MetricSamples, summing
// counter/gauge values across label sets (histograms contribute their
// observation count under "<name>.count").
func flattenSamples(samples []obs.Sample) []MetricSample {
	out := make([]MetricSample, 0, len(samples))
	for _, s := range samples {
		vals := make(map[string]float64, len(s.Snap.Metrics))
		for _, m := range s.Snap.Metrics {
			if m.Hist != nil {
				vals[m.Name+".count"] += float64(m.Hist.Count)
				continue
			}
			vals[m.Name] += m.Value
		}
		out = append(out, MetricSample{NS: s.NS, Values: vals})
	}
	return out
}
