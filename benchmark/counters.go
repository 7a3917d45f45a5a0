package main

import (
	"repro/internal/obs"
)

// snap wraps a Store.Metrics() snapshot (or a delta of two) with the
// lookups the benchmark needs. A series that is not registered, such as
// server.* on an in-process workload, reads as 0.
type snap struct{ obs.Snapshot }

// labelled sums the series of name whose label key has value val.
func (s snap) labelled(name, key, val string) (t float64) {
	for _, m := range s.Metrics {
		if m.Name == name && m.Labels[key] == val {
			t += m.Value
		}
	}
	return t
}

// histMean is the mean of every sample in the series of name (with
// label key=val when key is not empty), across shards.
func (s snap) histMean(name, key, val string) float64 {
	var sum, count float64
	for _, m := range s.Metrics {
		if m.Name == name && m.Hist != nil && (key == "" || m.Labels[key] == val) {
			sum += float64(m.Hist.Sum)
			count += float64(m.Hist.Count)
		}
	}
	return div(sum, count)
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spaceBytes is what the store occupies on its devices: chunks of Value
// Storage that are not free, the used part of the write buffers, and
// the two NVM indexes.
func spaceBytes(w *workload, end snap) float64 {
	return (float64(w.chunks())-end.Sum("vs.free_chunks"))*chunkSize +
		end.Sum("pwb.used_bytes") + end.Sum("hsit.space_bytes") + end.Sum("index.space_bytes")
}

// counterMetrics normalises the delta d of the store's counters over a
// phase of ops requests; end is the snapshot after it, for the gauges.
func counterMetrics(w *workload, d, end snap, ops int64) map[string]float64 {
	n := float64(ops)
	kop := n / 1000
	puts := d.labelled("core.ops", "op", "put")
	reads := d.Sum("core.read_path")
	user := d.Sum("core.user_bytes")
	cmds := d.Sum("server.commands")
	rputs := d.labelled("shard.routed_ops", "op", "put")
	rgets := d.labelled("shard.routed_ops", "op", "get")
	rscans := d.labelled("shard.routed_ops", "op", "scan")
	return map[string]float64{
		"server.cmd_read_mean_ns":      d.histMean("server.cmd_latency", "class", "read"),
		"server.cmd_write_mean_ns":     d.histMean("server.cmd_latency", "class", "write"),
		"server.dispatch_wait_mean_ns": d.histMean("server.dispatch_wait", "", ""),
		"server.pipeline_depth_mean":   d.histMean("server.pipeline_depth", "", ""),
		"server.pipelined_frac":        div(d.Sum("server.pipeline_ops"), cmds),
		"server.bytes_in_per_op":       div(d.Sum("server.bytes_in"), cmds),
		"server.bytes_out_per_op":      div(d.Sum("server.bytes_out"), cmds),

		"shard.replica_writes_per_put": div(d.labelled("shard.replica_writes", "op", "put"), rputs),
		"shard.read_fallback_frac":     div(d.Sum("shard.replica_read_fallbacks"), rgets),
		"shard.scan_merges_per_scan":   div(d.Sum("shard.scan_merges"), rscans),
		"shard.imbalance":              end.Sum("shard.imbalance"),

		"core.read_svc_frac":                div(d.labelled("core.read_path", "source", "svc"), reads),
		"core.read_pwb_frac":                div(d.labelled("core.read_path", "source", "pwb"), reads),
		"core.read_vs_frac":                 div(d.labelled("core.read_path", "source", "vs"), reads),
		"core.put_stalls_per_kop":           div(d.Sum("core.put_stalls"), kop),
		"core.reclaim_publish_lost_per_kop": div(d.Sum("core.reclaim_publish_lost"), kop),
		"core.put_virt_mean_ns":             d.histMean("core.op_latency", "op", "put"),
		"core.get_virt_mean_ns":             d.histMean("core.op_latency", "op", "get"),
		"core.scan_virt_mean_ns":            d.histMean("core.op_latency", "op", "scan"),
		"core.async_window_mean":            d.histMean("core.async_window", "", ""),
		"core.space_amp_end":                spaceBytes(w, end) / float64(w.dataBytes()),

		"epoch.enters_per_op": div(d.Sum("epoch.enters"), n),
		"epoch.pending_end":   end.Sum("epoch.pending"),

		"svc.hit_rate":              div(d.Sum("svc.hits"), d.Sum("svc.hits")+d.Sum("svc.misses")),
		"svc.evictions_per_kop":     div(d.Sum("svc.evictions"), kop),
		"svc.promotions_per_kop":    div(d.Sum("svc.promotions"), kop),
		"svc.scan_rewrites_per_kop": div(d.Sum("svc.scan_rewrites"), kop),
		"svc.touch_drops_per_kop":   div(d.Sum("svc.touch_drops"), kop),

		"pwb.reclaims_per_kop":   div(d.Sum("pwb.reclaims"), kop),
		"pwb.live_migrated_frac": div(d.Sum("pwb.live_migrated"), puts),
		"pwb.watermark_end":      div(end.Sum("pwb.watermark_effective"), float64(max(w.opt.Shards, 1))),

		"vs.bytes_written_per_user_byte":  div(d.Sum("vs.bytes_written"), user),
		"vs.gc_runs_per_kop":              div(d.Sum("vs.gc_runs"), kop),
		"vs.gc_bytes_moved_per_user_byte": div(d.Sum("vs.gc_bytes_moved"), user),
		"vs.free_chunk_frac_end":          div(end.Sum("vs.free_chunks"), float64(w.chunks())),

		"tcq.avg_batch":       div(d.Sum("tcq.combined"), d.Sum("tcq.batches")),
		"tcq.batches_per_kop": div(d.Sum("tcq.batches"), kop),

		"ssd.read_ios_per_op":      div(d.Sum("ssd.read_ios"), n),
		"ssd.bytes_read_per_op":    div(d.Sum("ssd.bytes_read"), n),
		"ssd.write_ios_per_kop":    div(d.Sum("ssd.write_ios"), kop),
		"ssd.bytes_written_per_op": div(d.Sum("ssd.bytes_written"), n),

		"nvm.loads_per_op":   div(d.Sum("nvm.loads"), n),
		"nvm.stores_per_op":  div(d.Sum("nvm.stores"), n),
		"nvm.flushes_per_op": div(d.Sum("nvm.flushes"), n),
		"nvm.fences_per_op":  div(d.Sum("nvm.fences"), n),
	}
}
