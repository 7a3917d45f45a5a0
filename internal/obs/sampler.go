package obs

import "sync"

// Sample is one periodic observation of a registry.
type Sample struct {
	NS   int64    `json:"ns"` // virtual time of the sample
	Snap Snapshot `json:"snapshot"`
}

// Point is one (time, value) pair of a metric timeline.
type Point struct {
	NS    int64   `json:"ns"`
	Value float64 `json:"value"`
}

// Sampler turns a snapshot source into a periodic timeline in *virtual*
// time: callers feed it their virtual clock via Observe, and whenever a
// full interval has elapsed it captures a snapshot. Because simulated
// time only advances when threads run, the sampler is driven by the
// workload itself rather than a wall-clock ticker — the benchmark
// harness calls Observe at its round barrier, which is how any metric
// gets a Figure 17-style timeline.
//
// Concurrency: Observe and Samples are safe from any goroutine. The nil
// *Sampler is a no-op.
type Sampler struct {
	mu       sync.Mutex
	source   func() Snapshot
	interval int64
	nextAt   int64
	samples  []Sample
}

// NewSampler creates a sampler reading source every intervalNS of
// virtual time. A nil source or non-positive interval yields a no-op
// sampler.
func NewSampler(source func() Snapshot, intervalNS int64) *Sampler {
	if source == nil || intervalNS <= 0 {
		return nil
	}
	return &Sampler{source: source, interval: intervalNS}
}

// Observe advances the sampler to virtual time nowNS, capturing one
// snapshot if at least an interval has passed since the previous
// capture (the first call always captures). Reports whether a sample
// was taken.
func (sp *Sampler) Observe(nowNS int64) bool {
	if sp == nil {
		return false
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if len(sp.samples) > 0 && nowNS < sp.nextAt {
		return false
	}
	sp.samples = append(sp.samples, Sample{NS: nowNS, Snap: sp.source()})
	sp.nextAt = nowNS + sp.interval
	return true
}

// Samples returns the captured samples in time order.
func (sp *Sampler) Samples() []Sample {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	out := make([]Sample, len(sp.samples))
	copy(out, sp.samples)
	return out
}

// Series extracts the timeline of one metric (values summed across its
// label sets, as Snapshot.Sum does).
func (sp *Sampler) Series(name string) []Point {
	var out []Point
	for _, s := range sp.Samples() {
		out = append(out, Point{NS: s.NS, Value: s.Snap.Sum(name)})
	}
	return out
}
