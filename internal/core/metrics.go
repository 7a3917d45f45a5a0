package core

import (
	"fmt"

	"repro/internal/obs"
)

// registerMetrics wires every subsystem into the observability registry
// (see METRICS.md for the full reference). Counters that the subsystems
// already keep as atomics are re-exported as counter funcs, read only at
// snapshot time, so the hot paths are untouched; the only new hot-path
// instrumentation is the op-latency histograms (one Record per public
// operation) and the TCQ batch-size histogram (one Record per batch).
//
// Called from Open before background goroutines start; the registry is
// immutable afterwards.
func (s *Store) registerMetrics() {
	r := s.reg

	// ---- core: operation mix, latency, read-path breakdown ----
	ops := func(op string, v func() int64) {
		r.CounterFunc(obs.Desc{Name: "core.ops", Help: "public operations", Unit: "ops",
			Labels: map[string]string{"op": op}}, v)
	}
	ops("put", s.stats.puts.Load)
	ops("get", s.stats.gets.Load)
	ops("delete", s.stats.deletes.Load)
	ops("scan", s.stats.scans.Load)
	rp := func(src, help string, v func() int64) {
		r.CounterFunc(obs.Desc{Name: "core.read_path", Help: help, Unit: "reads",
			Labels: map[string]string{"source": src}}, v)
	}
	rp("svc", "value reads served from the DRAM cache", s.stats.svcHits.Load)
	rp("pwb", "value reads served from an NVM write buffer", s.stats.pwbHits.Load)
	rp("vs", "value read IOs issued to Value Storage", s.stats.vsReads.Load)
	r.CounterFunc(obs.Desc{Name: "core.put_stalls", Help: "put attempts that found their PWB ring full (about one per sleep on the ring; says how late the host ran the reclaimer's goroutine, not what the put waited in virtual time)", Unit: "attempts"},
		s.stats.putStalls.Load)
	r.CounterFunc(obs.Desc{Name: "core.puts_stalled", Help: "puts that waited, in virtual time, for PWB reclamation to release the ring space they landed in", Unit: "ops"},
		s.stats.putsStalled.Load)
	s.putStallNS = r.Histogram(obs.Desc{Name: "core.put_stall_ns", Help: "virtual time a stalled put waited for its ring space (one sample per core.puts_stalled)", Unit: "ns"})
	r.CounterFunc(obs.Desc{Name: "core.user_bytes", Help: "value payload bytes written by the application (WAF denominator)", Unit: "bytes"},
		s.stats.userBytesWritten.Load)
	lat := func(op string) *obs.Histogram {
		return r.Histogram(obs.Desc{Name: "core.op_latency", Help: "operation latency in virtual time", Unit: "ns",
			Labels: map[string]string{"op": op}})
	}
	s.latPut, s.latGet, s.latScan = lat("put"), lat("get"), lat("scan")
	s.latPutBatch, s.latMultiGet = lat("put_batch"), lat("multiget")

	// Batch API (PutBatch/MultiGet): how often batches run and how many
	// keys each carries. Per-key work still lands in core.ops above.
	batchOps := func(op string, v func() int64) {
		r.CounterFunc(obs.Desc{Name: "core.batch_ops", Help: "batch operations (PutBatch/MultiGet calls)", Unit: "ops",
			Labels: map[string]string{"op": op}}, v)
	}
	batchOps("put", s.stats.batchPuts.Load)
	batchOps("get", s.stats.batchGets.Load)
	s.batchSizePut = r.Histogram(obs.Desc{Name: "core.batch_size", Help: "keys per batch operation", Unit: "keys",
		Labels: map[string]string{"op": "put"}})
	s.batchSizeGet = r.Histogram(obs.Desc{Name: "core.batch_size", Help: "keys per batch operation", Unit: "keys",
		Labels: map[string]string{"op": "get"}})

	// Async submission pipeline (PutAsync/GetAsync/DeleteAsync): how much
	// is submitted, how well the admission loop coalesces it, and how
	// long completions take on the async timeline. Per-key work still
	// lands in core.ops above.
	asyncOps := func(op string, v func() int64) {
		r.CounterFunc(obs.Desc{Name: "core.async_ops", Help: "asynchronous submissions accepted", Unit: "ops",
			Labels: map[string]string{"op": op}}, v)
	}
	asyncOps("put", s.stats.asyncPuts.Load)
	asyncOps("get", s.stats.asyncGets.Load)
	asyncOps("delete", s.stats.asyncDeletes.Load)
	s.asyncWindow = r.Histogram(obs.Desc{Name: "core.async_window", Help: "submissions coalesced per admission window", Unit: "ops"})
	s.asyncLat = r.Histogram(obs.Desc{Name: "core.async_latency", Help: "virtual time from admission-window open to completion", Unit: "ns"})
	r.GaugeFunc(obs.Desc{Name: "core.async_inflight", Help: "async submissions accepted but not yet completed", Unit: "ops"},
		func() float64 {
			var n int64
			for _, t := range s.threads {
				n += t.async.inflight.Load()
			}
			return float64(n)
		})

	// ---- svc: Scan-aware Value Cache (§4.4) ----
	if s.cache != nil {
		r.CounterFunc(obs.Desc{Name: "svc.hits", Help: "reads served from the cache", Unit: "reads"},
			s.stats.svcHits.Load)
		r.CounterFunc(obs.Desc{Name: "svc.misses", Help: "reads that fell through to NVM or SSD: records, as svc.hits counts them, not read IOs", Unit: "reads"},
			func() int64 { return s.stats.pwbHits.Load() + s.stats.vsRecords.Load() })
		r.GaugeFunc(obs.Desc{Name: "svc.bytes", Help: "resident value+overhead bytes", Unit: "bytes"},
			func() float64 { return float64(s.svcStats().Bytes) })
		r.GaugeFunc(obs.Desc{Name: "svc.entries", Help: "resident entries", Unit: "entries"},
			func() float64 { return float64(s.svcStats().Entries) })
		r.CounterFunc(obs.Desc{Name: "svc.promotions", Help: "2Q inactive->active promotions", Unit: "entries"},
			func() int64 { return s.svcStats().Promotions })
		r.CounterFunc(obs.Desc{Name: "svc.evictions", Help: "entries evicted for capacity", Unit: "entries"},
			func() int64 { return s.svcStats().Evictions })
		r.CounterFunc(obs.Desc{Name: "svc.chain_rewrites", Help: "scan chains handed to the rewrite hook on eviction", Unit: "chains"},
			func() int64 { return s.svcStats().ChainRewrites })
		r.CounterFunc(obs.Desc{Name: "svc.scan_rewrites", Help: "sorted scan-range rewrites into Value Storage (§4.4 steps 5-6)", Unit: "rewrites"},
			s.stats.scanRewrites.Load)
		r.CounterFunc(obs.Desc{Name: "svc.touch_drops", Help: "advisory touch events dropped under pressure", Unit: "events"},
			func() int64 { return s.svcStats().TouchDrops })
		r.CounterFunc(obs.Desc{Name: "svc.reuses", Help: "admissions that reused a dropped entry, buffer and all, once the two-epoch rule released it (§5.4)", Unit: "entries"},
			func() int64 { return s.svcStats().Reuses })
		r.CounterFunc(obs.Desc{Name: "svc.reclaim_admits", Help: "values a reclaim pass handed to the cache as it moved them to Value Storage, because the read-recency filter had their key (over pwb.live_migrated: the share of migrated records somebody had read)", Unit: "values"},
			s.stats.reclaimAdmits.Load)
		r.CounterFunc(obs.Desc{Name: "svc.reclaim_admit_skips", Help: "hand-offs a reclaim pass skipped because the cache manager's queue was more than half full (a pass never waits for the manager)", Unit: "values"},
			s.stats.reclaimAdmitSkips.Load)
		r.CounterFunc(obs.Desc{Name: "svc.scan_deferred", Help: "scan rows read from Value Storage and not admitted because it was their first touch (the touch set their read-recency bit; a second one admits)", Unit: "rows"},
			s.stats.scanDeferred.Load)
	}

	// ---- pwb: per-thread Persistent Write Buffers (§4.3) ----
	r.GaugeFunc(obs.Desc{Name: "pwb.capacity_bytes", Help: "total ring capacity across threads", Unit: "bytes"},
		func() float64 {
			var t int64
			for _, b := range s.pwbs {
				t += int64(b.Size())
			}
			return float64(t)
		})
	r.GaugeFunc(obs.Desc{Name: "pwb.used_bytes", Help: "bytes between tail and head across rings", Unit: "bytes"},
		func() float64 {
			var t int64
			for _, b := range s.pwbs {
				t += int64(b.Used())
			}
			return float64(t)
		})
	r.GaugeFunc(obs.Desc{Name: "pwb.utilization", Help: "highest ring utilization (reclamation triggers above pwb.watermark_effective)", Unit: "ratio"},
		func() float64 {
			var m float64
			for _, b := range s.pwbs {
				if u := b.Utilization(); u > m {
					m = u
				}
			}
			return m
		})
	r.GaugeFunc(obs.Desc{Name: "pwb.watermark_effective", Help: "reclamation trigger in force (the adaptive controller's value, or the configured watermark when fixed)", Unit: "ratio"},
		s.effectiveWatermark)
	r.CounterFunc(obs.Desc{Name: "pwb.bytes_appended", Help: "value payload bytes appended across rings", Unit: "bytes"},
		func() int64 {
			var t int64
			for _, b := range s.pwbs {
				t += b.BytesAppended()
			}
			return t
		})
	r.CounterFunc(obs.Desc{Name: "pwb.reclaims", Help: "background reclamation passes", Unit: "passes"},
		s.stats.reclaims.Load)
	r.CounterFunc(obs.Desc{Name: "pwb.reclaim_ns", Help: "virtual time reclamation passes took, on the reclaimers' clocks (over pwb.live_migrated it is the reclaimer's cost per record, which must stay below a put's for reclamation to keep off the put's critical path)", Unit: "ns"},
		s.stats.reclaimNS.Load)
	r.CounterFunc(obs.Desc{Name: "pwb.records_scanned", Help: "ring records reclamation passes parsed and HSIT-checked (over pwb.live_migrated plus superseded records it is the rescan factor: 1 unless passes abort)", Unit: "records"},
		s.stats.pwbScanned.Load)
	r.CounterFunc(obs.Desc{Name: "pwb.live_migrated", Help: "live values migrated from PWB to Value Storage (reclamation and the recovery drain)", Unit: "values"},
		s.stats.pwbLiveMigrated.Load)
	r.CounterFunc(obs.Desc{Name: "core.reclaim_publish_lost", Help: "migrated values whose PublishIf lost to a concurrent foreground write (VS copy invalidated)", Unit: "values"},
		s.stats.reclaimPublishLost.Load)
	r.CounterFunc(obs.Desc{Name: "pwb.scan_torn_record", Help: "reclamation passes aborted on a corrupt ring record (unparseable, or its length runs past the scanned range): the reclaim cursor stays put and the next pass re-scans the range (should stay 0 under the frozen-tail protocol)", Unit: "passes"},
		s.stats.scanTornRecords.Load)

	// ---- vs: log-structured Value Storage, per device (§5.1-5.2) ----
	for i, vs := range s.vsm.Stores {
		vs := vs
		lbl := map[string]string{"device": fmt.Sprintf("ssd%d", i)}
		r.CounterFunc(obs.Desc{Name: "vs.chunks_written", Help: "chunks committed", Unit: "chunks", Labels: lbl},
			func() int64 { return vs.Stats().ChunksWritten })
		r.CounterFunc(obs.Desc{Name: "vs.bytes_written", Help: "record bytes shipped to the device (incl. GC)", Unit: "bytes", Labels: lbl},
			func() int64 { return vs.Stats().BytesWritten })
		r.CounterFunc(obs.Desc{Name: "vs.gc_runs", Help: "garbage collection passes", Unit: "passes", Labels: lbl},
			func() int64 { return vs.Stats().GCRuns })
		r.CounterFunc(obs.Desc{Name: "vs.gc_live_moved", Help: "live values relocated by GC", Unit: "values", Labels: lbl},
			func() int64 { return vs.Stats().GCLiveMoved })
		r.CounterFunc(obs.Desc{Name: "vs.gc_bytes_moved", Help: "payload bytes copied by GC", Unit: "bytes", Labels: lbl},
			func() int64 { return vs.Stats().GCBytesMoved })
		r.GaugeFunc(obs.Desc{Name: "vs.free_chunks", Help: "free chunks", Unit: "chunks", Labels: lbl},
			func() float64 { return float64(vs.FreeChunks()) })
		r.GaugeFunc(obs.Desc{Name: "vs.live_chunks", Help: "live (sealed, non-empty) chunks", Unit: "chunks", Labels: lbl},
			func() float64 { return float64(vs.Stats().LiveChunks) })
		r.CounterFunc(obs.Desc{Name: "vs.user_bytes", Help: "user payload bytes first landed on this device (per-device WAF denominator)", Unit: "bytes", Labels: lbl},
			vs.UserBytes)
	}

	// ---- ssd: simulated flash devices ----
	for i, dev := range s.ssds {
		dev := dev
		lbl := map[string]string{"device": fmt.Sprintf("ssd%d", i)}
		r.CounterFunc(obs.Desc{Name: "ssd.bytes_read", Help: "bytes read from the device", Unit: "bytes", Labels: lbl},
			func() int64 { return dev.Stats().BytesRead })
		r.CounterFunc(obs.Desc{Name: "ssd.bytes_written", Help: "durable (acked) bytes written (WAF numerator)", Unit: "bytes", Labels: lbl},
			func() int64 { return dev.Stats().BytesWritten })
		r.CounterFunc(obs.Desc{Name: "ssd.read_ios", Help: "read requests serviced", Unit: "ios", Labels: lbl},
			func() int64 { return dev.Stats().ReadIOs })
		r.CounterFunc(obs.Desc{Name: "ssd.write_ios", Help: "write requests serviced", Unit: "ios", Labels: lbl},
			func() int64 { return dev.Stats().WriteIOs })
		r.GaugeFunc(obs.Desc{Name: "ssd.queue_depth", Help: "staged, unacknowledged writes in flight", Unit: "ios", Labels: lbl},
			func() float64 { return float64(dev.InFlight()) })
	}
	// Per-device WAF: each device's acked bytes over the user bytes that
	// first landed there, so a hot device's amplification is no longer
	// averaged against idle capacity devices. Relocations onto a device
	// (GC, demotion, scan rewrite) raise its numerator without touching
	// its denominator — amplification, honestly attributed.
	for i := range s.ssds {
		i := i
		lbl := map[string]string{"device": fmt.Sprintf("ssd%d", i)}
		r.GaugeFunc(obs.Desc{Name: "ssd.waf", Help: "per-device write amplification: device bytes written / user bytes first landed on it", Unit: "ratio", Labels: lbl},
			func() float64 {
				user := s.vsm.Stores[i].UserBytes()
				if user == 0 {
					return 0
				}
				return float64(s.ssds[i].Stats().BytesWritten) / float64(user)
			})
	}
	r.GaugeFunc(obs.Desc{Name: "ssd.waf", Help: "store-wide SSD write amplification: device bytes written / user bytes (Fig 12)", Unit: "ratio"},
		func() float64 {
			user := s.stats.userBytesWritten.Load()
			if user == 0 {
				return 0
			}
			var dev int64
			for _, d := range s.ssds {
				dev += d.Stats().BytesWritten
			}
			return float64(dev) / float64(user)
		})

	// ---- tier: hot/cold value placement (PrismDB-style steering) ----
	tierBytes := func(name, class, help string, v func() int64) {
		r.CounterFunc(obs.Desc{Name: name, Help: help, Unit: "bytes",
			Labels: map[string]string{"class": class}}, v)
	}
	tierBytes("tier.steered_bytes", "hot", "reclaimed bytes written to the class's intended tier", s.stats.tierHotSteered.Load)
	tierBytes("tier.steered_bytes", "cold", "reclaimed bytes written to the class's intended tier", s.stats.tierColdSteered.Load)
	tierBytes("tier.fallback_bytes", "hot", "reclaimed bytes spilled to another device (intended tier out of space)", s.stats.tierHotFallback.Load)
	tierBytes("tier.fallback_bytes", "cold", "reclaimed bytes spilled to another device (intended tier out of space)", s.stats.tierColdFallback.Load)
	r.CounterFunc(obs.Desc{Name: "tier.demotions", Help: "cooled-off values relocated fast tier -> capacity tier", Unit: "values"},
		s.stats.tierDemotions.Load)
	r.CounterFunc(obs.Desc{Name: "tier.demoted_bytes", Help: "payload bytes relocated by the demotion pass", Unit: "bytes"},
		s.stats.tierDemotedBytes.Load)
	r.GaugeFunc(obs.Desc{Name: "tier.fast_device", Help: "device index of the fast tier (-1 when tiering is off)", Unit: "index"},
		func() float64 {
			if !s.tiered() {
				return -1
			}
			return float64(s.tierFast)
		})
	r.GaugeFunc(obs.Desc{Name: "tier.capacity_device", Help: "device index of the capacity tier (-1 when tiering is off)", Unit: "index"},
		func() float64 {
			if !s.tiered() {
				return -1
			}
			return float64(s.tierCap)
		})

	// ---- nvm: persistent memory device ----
	r.CounterFunc(obs.Desc{Name: "nvm.loads", Help: "load operations", Unit: "ops"},
		func() int64 { return s.nvmDev.Stats().Loads })
	r.CounterFunc(obs.Desc{Name: "nvm.stores", Help: "store operations", Unit: "ops"},
		func() int64 { return s.nvmDev.Stats().Stores })
	r.CounterFunc(obs.Desc{Name: "nvm.flushes", Help: "cache-line flushes", Unit: "ops"},
		func() int64 { return s.nvmDev.Stats().Flushes })
	r.CounterFunc(obs.Desc{Name: "nvm.fences", Help: "persistence fences", Unit: "ops"},
		func() int64 { return s.nvmDev.Stats().Fences })

	// ---- tcq / ta: read batching (§5.3) ----
	if !s.opt.DisableCombining {
		batchHist := r.Histogram(obs.Desc{Name: "tcq.batch_size", Help: "requests coalesced per submitted batch (Fig 11)", Unit: "requests"})
		for i, q := range s.queues {
			q := q
			q.BatchHist = batchHist
			lbl := map[string]string{"device": fmt.Sprintf("ssd%d", i)}
			r.CounterFunc(obs.Desc{Name: "tcq.batches", Help: "batches submitted by combining leaders", Unit: "batches", Labels: lbl},
				func() int64 { return q.Stats().Batches })
			r.CounterFunc(obs.Desc{Name: "tcq.combined", Help: "requests submitted across all batches", Unit: "requests", Labels: lbl},
				func() int64 { return q.Stats().Combined })
		}
		r.GaugeFunc(obs.Desc{Name: "tcq.avg_batch", Help: "mean requests per submission across queues", Unit: "requests"},
			func() float64 {
				var b, c int64
				for _, q := range s.queues {
					st := q.Stats()
					b, c = b+st.Batches, c+st.Combined
				}
				if b == 0 {
					return 0
				}
				return float64(c) / float64(b)
			})
	} else {
		batchHist := r.Histogram(obs.Desc{Name: "ta.batch_size", Help: "requests per timeout-batched submission (Fig 11 baseline)", Unit: "requests"})
		for i, b := range s.tas {
			b := b
			b.BatchHist = batchHist
			lbl := map[string]string{"device": fmt.Sprintf("ssd%d", i)}
			r.CounterFunc(obs.Desc{Name: "ta.batches", Help: "timeout-batched submissions", Unit: "batches", Labels: lbl},
				b.Batches)
		}
	}

	// ---- NVM index structures and epochs ----
	r.GaugeFunc(obs.Desc{Name: "hsit.space_bytes", Help: "NVM bytes of HSIT entries (§7.6 space accounting)", Unit: "bytes"},
		func() float64 { return float64(s.table.SpaceBytes()) })
	r.GaugeFunc(obs.Desc{Name: "index.space_bytes", Help: "NVM bytes of the persistent key index (§7.6)", Unit: "bytes"},
		func() float64 { return float64(s.index.SpaceBytes()) })
	r.GaugeFunc(obs.Desc{Name: "epoch.global", Help: "current global epoch", Unit: "epochs"},
		func() float64 { return float64(s.em.Epoch()) })
	r.GaugeFunc(obs.Desc{Name: "epoch.pending", Help: "retired objects awaiting the two-epoch grace", Unit: "objects"},
		func() float64 { return float64(s.em.Pending()) })
	r.CounterFunc(obs.Desc{Name: "epoch.enters", Help: "epoch critical sections entered (batch ops amortize this per-op toll)", Unit: "ops"},
		s.em.Enters)
}

// MetricsRegistry exposes the store's observability registry, e.g. for
// attaching an obs.Sampler.
func (s *Store) MetricsRegistry() *obs.Registry { return s.reg }

// Metrics returns a stable, JSON-serializable snapshot of every
// registered metric. Safe to call concurrently with operations, and
// after Close.
func (s *Store) Metrics() obs.Snapshot { return s.reg.Snapshot() }
