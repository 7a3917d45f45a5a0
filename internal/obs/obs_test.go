package obs

import (
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(Desc{Name: "t.count", Unit: "ops"})
	const workers, each = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*each {
		t.Fatalf("counter = %d, want %d", got, workers*each)
	}
	m, ok := r.Snapshot().Get("t.count", nil)
	if !ok || m.Value != workers*each {
		t.Fatalf("snapshot value = %v ok=%v", m.Value, ok)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(Desc{Name: "t.lat", Unit: "ns"})
	const workers, each = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < each; i++ {
				h.Record(rng.Int63n(1_000_000))
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*each {
		t.Fatalf("count = %d, want %d", h.Count(), workers*each)
	}
	m, _ := r.Snapshot().Get("t.lat", nil)
	hv := m.Hist
	if hv == nil {
		t.Fatal("no histogram value in snapshot")
	}
	if hv.Min < 0 || hv.Max >= 1_000_000 || hv.Min > hv.Max {
		t.Fatalf("min/max out of range: %d..%d", hv.Min, hv.Max)
	}
	if hv.P50 > hv.P99 || hv.P99 > hv.P999 || hv.P999 > hv.Max {
		t.Fatalf("percentiles not monotonic: p50=%d p99=%d p999=%d max=%d", hv.P50, hv.P99, hv.P999, hv.Max)
	}
	// Uniform [0, 1e6): p50 should land near 500k within bucket error.
	if hv.P50 < 400_000 || hv.P50 > 600_000 {
		t.Fatalf("p50 = %d, want ~500000", hv.P50)
	}
}

func TestHistogramPercentilesExact(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(Desc{Name: "t.h"})
	for v := int64(1); v <= 1000; v++ {
		h.Record(v)
	}
	m, _ := r.Snapshot().Get("t.h", nil)
	hv := m.Hist
	if hv.Count != 1000 || hv.Min != 1 || hv.Max != 1000 {
		t.Fatalf("count/min/max = %d/%d/%d", hv.Count, hv.Min, hv.Max)
	}
	// log-linear buckets guarantee <1.6% relative error.
	within := func(got, want int64) bool {
		d := got - want
		if d < 0 {
			d = -d
		}
		return float64(d) <= 0.02*float64(want)+1
	}
	if !within(hv.P50, 500) || !within(hv.P99, 990) || !within(hv.P999, 999) {
		t.Fatalf("percentiles p50=%d p99=%d p999=%d", hv.P50, hv.P99, hv.P999)
	}
	if hv.Mean < 499 || hv.Mean > 502 {
		t.Fatalf("mean = %f, want ~500.5", hv.Mean)
	}
}

func TestSnapshotStableAndJSON(t *testing.T) {
	r := NewRegistry()
	// Register out of order with labels; snapshot must sort stably.
	r.CounterFunc(Desc{Name: "z.last", Labels: map[string]string{"device": "ssd1"}}, func() int64 { return 2 })
	r.CounterFunc(Desc{Name: "z.last", Labels: map[string]string{"device": "ssd0"}}, func() int64 { return 1 })
	r.GaugeFunc(Desc{Name: "a.first", Unit: "ratio"}, func() float64 { return 0.5 })
	r.Counter(Desc{Name: "m.mid"}).Add(7)

	s1, s2 := r.Snapshot(), r.Snapshot()
	j1, j2 := s1.JSON(), s2.JSON()
	if j1 != j2 {
		t.Fatalf("snapshots differ with no updates:\n%s\nvs\n%s", j1, j2)
	}
	var decoded Snapshot
	if err := json.Unmarshal([]byte(j1), &decoded); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	order := []string{"a.first", "m.mid", "z.last", "z.last"}
	for i, want := range order {
		if s1.Metrics[i].Name != want {
			t.Fatalf("metric %d = %s, want %s", i, s1.Metrics[i].Name, want)
		}
	}
	if s1.Metrics[2].Labels["device"] != "ssd0" || s1.Metrics[3].Labels["device"] != "ssd1" {
		t.Fatal("label sets not sorted")
	}
	if got := s1.Sum("z.last"); got != 3 {
		t.Fatalf("Sum(z.last) = %v, want 3", got)
	}
	if _, ok := s1.Value("z.last"); ok {
		t.Fatal("Value must reject ambiguous names")
	}
	if v, ok := s1.Value("m.mid"); !ok || v != 7 {
		t.Fatalf("Value(m.mid) = %v ok=%v", v, ok)
	}
}

func TestNilRegistryNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter(Desc{Name: "x"})
	h := r.Histogram(Desc{Name: "y"})
	r.GaugeFunc(Desc{Name: "g"}, func() float64 { return 1 })
	r.CounterFunc(Desc{Name: "c"}, func() int64 { return 1 })
	c.Inc()
	c.Add(5)
	h.Record(42)
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil handles must stay zero")
	}
	if s := r.Snapshot(); len(s.Metrics) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter(Desc{Name: "dup", Labels: map[string]string{"a": "1"}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate metric")
		}
	}()
	r.Counter(Desc{Name: "dup", Labels: map[string]string{"a": "1"}})
}

func TestSampler(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(Desc{Name: "s.ops"})
	sp := NewSampler(r.Snapshot, 100)
	if !sp.Observe(0) {
		t.Fatal("first observation must sample")
	}
	c.Add(10)
	if sp.Observe(50) {
		t.Fatal("mid-interval observation must not sample")
	}
	if !sp.Observe(100) {
		t.Fatal("interval boundary must sample")
	}
	c.Add(5)
	sp.Observe(250)
	pts := sp.Series("s.ops")
	want := []Point{{0, 0}, {100, 10}, {250, 15}}
	if len(pts) != len(want) {
		t.Fatalf("series = %v, want %v", pts, want)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("series[%d] = %v, want %v", i, pts[i], want[i])
		}
	}

	var nilSp *Sampler
	if nilSp.Observe(1) || nilSp.Samples() != nil {
		t.Fatal("nil sampler must no-op")
	}
}
