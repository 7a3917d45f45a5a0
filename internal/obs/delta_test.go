package obs

import "testing"

// TestDeltaHistogramZeroesRankStats pins the interval-snapshot contract:
// a delta'd histogram carries the interval's Count/Sum/Mean, and the
// rank statistics (Min/Max/percentiles), which are structural over the
// whole history and cannot be subtracted, are zeroed — never left at
// their cumulative values, which would silently mix lifetime tails into
// an interval snapshot (the bug of ISSUE 8).
func TestDeltaHistogramZeroesRankStats(t *testing.T) {
	hist := func(count, sum, min, max, p50, p99, p999 int64) Metric {
		return Metric{Name: "h", Type: TypeHistogram, Value: float64(count),
			Hist: &HistogramValue{Count: count, Sum: sum,
				Mean: float64(sum) / float64(count),
				Min:  min, Max: max, P50: p50, P99: p99, P999: p999}}
	}
	prev := Snapshot{Metrics: []Metric{hist(10, 1000, 5, 400, 90, 380, 400)}}
	cur := Snapshot{Metrics: []Metric{hist(25, 4000, 5, 900, 120, 850, 900)}}

	d := cur.Delta(prev)
	h := d.Metrics[0].Hist
	if h.Count != 15 || h.Sum != 3000 {
		t.Fatalf("interval Count/Sum = %d/%d, want 15/3000", h.Count, h.Sum)
	}
	if h.Mean != 200 {
		t.Errorf("interval Mean = %v, want 200 (recomputed from interval Count/Sum)", h.Mean)
	}
	if d.Metrics[0].Value != 15 {
		t.Errorf("histogram Value = %v, want interval count 15", d.Metrics[0].Value)
	}
	if h.Min != 0 || h.Max != 0 || h.P50 != 0 || h.P99 != 0 || h.P999 != 0 {
		t.Errorf("rank stats not zeroed in delta: %+v", *h)
	}
	if cur.Metrics[0].Hist.Max != 900 {
		t.Error("Delta mutated the source snapshot's histogram")
	}

	// An idle interval zeroes everything rather than reporting stale
	// lifetime values.
	idle := cur.Delta(cur)
	h = idle.Metrics[0].Hist
	if h.Count != 0 || h.Sum != 0 || h.Mean != 0 || h.Max != 0 || h.P99 != 0 {
		t.Errorf("idle-interval histogram not fully zeroed: %+v", *h)
	}
}

// TestDeltaCounterAndGauge pins the non-histogram delta rules: counters
// report the increase (clamped at zero across a restart), gauges pass
// through as point-in-time readings, and series absent from prev count
// from zero.
func TestDeltaCounterAndGauge(t *testing.T) {
	snap := func(c, g float64) Snapshot {
		return Snapshot{Metrics: []Metric{
			{Name: "c", Type: TypeCounter, Value: c},
			{Name: "g", Type: TypeGauge, Value: g},
		}}
	}
	d := snap(70, 3).Delta(snap(50, 9))
	if d.Metrics[0].Value != 20 {
		t.Errorf("counter delta = %v, want 20", d.Metrics[0].Value)
	}
	if d.Metrics[1].Value != 3 {
		t.Errorf("gauge delta = %v, want pass-through 3", d.Metrics[1].Value)
	}

	restarted := snap(5, 1).Delta(snap(50, 9))
	if restarted.Metrics[0].Value != 0 {
		t.Errorf("restarted counter delta = %v, want clamp to 0", restarted.Metrics[0].Value)
	}

	fresh := snap(70, 3).Delta(Snapshot{})
	if fresh.Metrics[0].Value != 70 {
		t.Errorf("counter absent from prev: delta = %v, want 70", fresh.Metrics[0].Value)
	}
}
