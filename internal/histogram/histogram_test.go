package histogram

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestEmpty(t *testing.T) {
	h := New()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(99) != 0 || h.Min() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
}

func TestExactSmallValues(t *testing.T) {
	h := New()
	for v := int64(0); v < 64; v++ {
		h.Record(v)
	}
	if h.Min() != 0 || h.max != 63 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.max)
	}
	if got := h.Percentile(50); got < 30 || got > 33 {
		t.Fatalf("p50 = %d, want ~31", got)
	}
}

func TestRelativeErrorBound(t *testing.T) {
	// Every recorded value must come back within ~3.2% (two sub-bucket
	// widths) when it is the only sample.
	for _, v := range []int64{1, 63, 64, 100, 1000, 54321, 1e6, 5e7, 3e9} {
		h := New()
		h.Record(v)
		got := h.Percentile(100)
		rel := math.Abs(float64(got-v)) / float64(v)
		if rel > 0.032 {
			t.Errorf("value %d came back as %d (rel err %.3f)", v, got, rel)
		}
	}
}

func TestPercentilesAgainstSortedSamples(t *testing.T) {
	rng := sim.NewRNG(99)
	h := New()
	var samples []int64
	for i := 0; i < 20000; i++ {
		v := int64(rng.Intn(1_000_000))
		samples = append(samples, v)
		h.Record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []float64{50, 90, 99, 99.9} {
		exact := samples[int(p/100*float64(len(samples)))-1]
		got := h.Percentile(p)
		rel := math.Abs(float64(got-exact)) / math.Max(float64(exact), 1)
		if rel > 0.05 {
			t.Errorf("p%.1f = %d, exact %d (rel err %.3f)", p, got, exact, rel)
		}
	}
}

func TestMergeEqualsCombinedRecording(t *testing.T) {
	rng := sim.NewRNG(5)
	a, b, all := New(), New(), New()
	for i := 0; i < 5000; i++ {
		v := int64(rng.Intn(100000))
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		all.Record(v)
	}
	a.Merge(b)
	if a.Count() != all.Count() || a.Mean() != all.Mean() {
		t.Fatal("merge diverged from combined recording")
	}
	for _, p := range []float64{50, 99} {
		if a.Percentile(p) != all.Percentile(p) {
			t.Fatalf("p%.0f differs after merge", p)
		}
	}
}

func TestNegativeClampedToZero(t *testing.T) {
	h := New()
	h.Record(-5)
	if h.Min() != 0 || h.Count() != 1 {
		t.Fatal("negative sample mishandled")
	}
}

func TestMonotonePercentiles(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		h := New()
		for i := 0; i < 500; i++ {
			h.Record(int64(rng.Intn(1 << 30)))
		}
		last := int64(-1)
		for _, p := range []float64{1, 10, 25, 50, 75, 90, 99, 99.9, 100} {
			v := h.Percentile(p)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	h := New()
	for i := 0; i < 100; i++ {
		h.Record(10_000) // 10us
	}
	s := h.Summarize()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.AvgUS < 9 || s.AvgUS > 11 {
		t.Fatalf("avg = %v us", s.AvgUS)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}
