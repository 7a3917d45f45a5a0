package obs

// Delta returns the activity between prev and s, so per-phase metrics
// (load vs run vs recovery, per-shard intervals, Fig12 WAF phases) no
// longer require hand-diffing counters:
//
//   - counters become the increase since prev (clamped at 0 if a series
//     restarted);
//   - histograms report the interval's Count and Sum, with Mean
//     recomputed from them; Min/Max/percentiles are structural over the
//     whole history — log-bucketed histograms cannot subtract rank
//     state — so they are zeroed rather than left at their cumulative
//     values (which would silently mix lifetime tails into an interval
//     snapshot). Consumers needing tails over an interval must keep
//     their own histogram;
//   - gauges are point-in-time readings and pass through unchanged.
//
// Series absent from prev (e.g. registered mid-run) are treated as
// starting from zero. prev must come from the same registry lineage for
// the result to be meaningful, but no identity check is enforced.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	idx := make(map[string]Metric, len(prev.Metrics))
	for _, m := range prev.Metrics {
		idx[Desc{Name: m.Name, Labels: m.Labels}.key()] = m
	}
	out := Snapshot{Metrics: make([]Metric, 0, len(s.Metrics))}
	for _, m := range s.Metrics {
		p, ok := idx[Desc{Name: m.Name, Labels: m.Labels}.key()]
		if ok {
			switch {
			case m.Hist != nil && p.Hist != nil:
				h := *m.Hist
				h.Count -= p.Hist.Count
				h.Sum -= p.Hist.Sum
				if h.Count > 0 {
					h.Mean = float64(h.Sum) / float64(h.Count)
				} else {
					h.Count, h.Sum, h.Mean = 0, 0, 0
				}
				// Rank statistics cannot be diffed; zero them so an
				// interval snapshot never reads as lifetime tails.
				h.Min, h.Max = 0, 0
				h.P50, h.P99, h.P999 = 0, 0, 0
				m.Hist = &h
				m.Value = float64(h.Count)
			case m.Type == TypeCounter:
				m.Value -= p.Value
				if m.Value < 0 {
					m.Value = 0
				}
			}
		}
		out.Metrics = append(out.Metrics, m)
	}
	return out
}
