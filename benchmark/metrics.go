package main

import "encoding/json"

// metricDef names one reported number. The lists below are the single
// source of names, units, directions and bounds: BENCHMARK.json repeats
// them, and a test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the base's median it may worsen by
}

func (d metricDef) worse(base, v float64) bool {
	if d.Better == "higher" {
		return v < base*(1-d.Bound)
	}
	return v > base*(1+d.Bound)
}

// endToEnd is what a user of the store sees. Every metric is defined,
// and never 0, on every workload. The bounds come from the calibration
// in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"virt_kops", "kops/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.25},
	{"bytes_per_op", "B", "lower", 0.15},
	{"write_amp", "ratio", "lower", 0.15},
}

// perLayer is every single-layer metric: spans of the traced pass,
// Store.Metrics() deltas around the measured phase, and the ladder.
var perLayer = func() []metricDef {
	// The whole store on the wall clock: observed, not bounded, because
	// this sandbox does not repeat them within a tenth (README.md).
	d := []metricDef{
		{Name: "wall_kops", Unit: "kops/s", Better: "higher"},
		{Name: "cpu_us_per_op", Unit: "us", Better: "lower"},
		{Name: "wall_p50_us", Unit: "us", Better: "lower"},
		{Name: "wall_p99_us", Unit: "us", Better: "lower"},
	}
	for _, k := range []string{"put", "get", "scan"} {
		for _, s := range []string{"wall_p50_ns", "wall_p99_ns", "virt_p50_ns", "virt_p99_ns"} {
			d = append(d, metricDef{Name: "op." + k + "." + s, Unit: "ns", Better: "lower"})
		}
	}
	d = append(d, counterDefs...)
	for _, r := range rungs {
		d = append(d, metricDef{Name: r.name + ".wall_ns", Unit: "ns", Better: "lower"})
		if !allocFree[r.name] {
			d = append(d, metricDef{Name: r.name + ".allocs", Unit: "count", Better: "lower"})
		}
		if r.clock {
			d = append(d, metricDef{Name: r.name + ".virt_ns", Unit: "ns", Better: "lower"})
		}
	}
	for _, r := range benchRungs {
		d = append(d, metricDef{Name: r.name + "_ns", Unit: "ns", Better: "lower"})
	}
	return append(d, metricDef{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"})
}()

// counterDefs are the metrics derived from Store.Metrics() deltas, by
// module. "per_op" divides by the requests of the measured phase,
// "per_kop" by thousands of them.
var counterDefs = []metricDef{
	{Name: "server.cmd_read_mean_ns", Unit: "ns", Better: "lower"},
	{Name: "server.cmd_write_mean_ns", Unit: "ns", Better: "lower"},
	{Name: "server.dispatch_wait_mean_ns", Unit: "ns", Better: "lower"},
	{Name: "server.pipeline_depth_mean", Unit: "count", Better: "higher"},
	{Name: "server.pipelined_frac", Unit: "ratio", Better: "higher"},
	{Name: "server.bytes_in_per_op", Unit: "B", Better: "lower"},
	{Name: "server.bytes_out_per_op", Unit: "B", Better: "lower"},

	{Name: "shard.replica_writes_per_put", Unit: "count", Better: "lower"},
	{Name: "shard.read_fallback_frac", Unit: "ratio", Better: "lower"},
	{Name: "shard.scan_merges_per_scan", Unit: "count", Better: "lower"},
	{Name: "shard.imbalance", Unit: "ratio", Better: "lower"},

	{Name: "core.read_svc_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.read_pwb_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.read_vs_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.put_stalls_per_kop", Unit: "count", Better: "lower"},
	{Name: "core.reclaim_publish_lost_per_kop", Unit: "count", Better: "lower"},
	{Name: "core.put_virt_mean_ns", Unit: "ns", Better: "lower"},
	{Name: "core.get_virt_mean_ns", Unit: "ns", Better: "lower"},
	{Name: "core.scan_virt_mean_ns", Unit: "ns", Better: "lower"},
	{Name: "core.async_window_mean", Unit: "count", Better: "higher"},
	{Name: "core.recovery_virt_ms", Unit: "ms", Better: "lower"},
	{Name: "core.space_amp_end", Unit: "ratio", Better: "lower"},

	{Name: "epoch.enters_per_op", Unit: "count", Better: "lower"},
	{Name: "epoch.pending_end", Unit: "count", Better: "lower"},

	{Name: "svc.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "svc.evictions_per_kop", Unit: "count", Better: "lower"},
	{Name: "svc.promotions_per_kop", Unit: "count", Better: "lower"},
	{Name: "svc.scan_rewrites_per_kop", Unit: "count", Better: "lower"},
	{Name: "svc.touch_drops_per_kop", Unit: "count", Better: "lower"},

	{Name: "pwb.reclaims_per_kop", Unit: "count", Better: "lower"},
	{Name: "pwb.live_migrated_frac", Unit: "ratio", Better: "lower"},
	{Name: "pwb.watermark_end", Unit: "ratio", Better: "higher"},

	{Name: "vs.bytes_written_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "vs.gc_runs_per_kop", Unit: "count", Better: "lower"},
	{Name: "vs.gc_bytes_moved_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "vs.free_chunk_frac_end", Unit: "ratio", Better: "higher"},

	{Name: "tcq.avg_batch", Unit: "count", Better: "higher"},
	{Name: "tcq.batches_per_kop", Unit: "count", Better: "lower"},

	{Name: "ssd.read_ios_per_op", Unit: "count", Better: "lower"},
	{Name: "ssd.bytes_read_per_op", Unit: "B", Better: "lower"},
	{Name: "ssd.write_ios_per_kop", Unit: "count", Better: "lower"},
	{Name: "ssd.bytes_written_per_op", Unit: "B", Better: "lower"},

	{Name: "nvm.loads_per_op", Unit: "count", Better: "lower"},
	{Name: "nvm.stores_per_op", Unit: "count", Better: "lower"},
	{Name: "nvm.flushes_per_op", Unit: "count", Better: "lower"},
	{Name: "nvm.fences_per_op", Unit: "count", Better: "lower"},
}

// runSeconds is the measured time per run that BENCHMARK.json asks for.
const runSeconds = 8

// describe renders BENCHMARK.json from the tables in this package, which
// are the single source of every name in it.
func describe() []byte {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	file := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []named     `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		file.Workloads = append(file.Workloads, named{w.name, w.why})
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers
	}
	return append(b, '\n')
}
