package bench

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/ycsb"
)

// tiny returns a fast configuration for shape assertions.
func tiny() RunConfig {
	return RunConfig{Threads: 4, Records: 3000, Ops: 6000}
}

func TestLoadAndRunProduceSaneResults(t *testing.T) {
	st, err := NewEngine(EnginePrism, RunConfig{Threads: 4, Records: 3000})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rc := tiny()
	load := Load(st, EnginePrism, rc)
	if load.Ops == 0 || load.VirtualNS <= 0 || load.Errors != 0 {
		t.Fatalf("load result %+v", load)
	}
	r := Run(st, EnginePrism, ycsb.WorkloadC, rc)
	if r.Ops == 0 || r.KOpsPerSec() <= 0 {
		t.Fatalf("run result %+v", r)
	}
	if r.Errors != 0 {
		t.Fatalf("read-only workload produced %d errors", r.Errors)
	}
	if r.Lat.AvgUS <= 0 || r.Lat.P99US < r.Lat.P50US {
		t.Fatalf("latency summary implausible: %+v", r.Lat)
	}
}

func TestEveryEngineRunsEveryWorkload(t *testing.T) {
	rc := RunConfig{Threads: 2, Records: 1500, Ops: 2000}
	for _, kind := range AllEngines {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			th := rc.Threads
			if kind == EngineSLMDB {
				th = 1
			}
			st, err := NewEngine(kind, RunConfig{Threads: th, Records: rc.Records})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			rck := rc
			rck.Threads = th
			Load(st, kind, rck)
			for _, w := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC, ycsb.WorkloadD, ycsb.WorkloadE, ycsb.Nutanix} {
				r := Run(st, kind, w, rck)
				if r.Ops == 0 {
					t.Fatalf("workload %c ran no ops", w)
				}
				if r.Errors > r.Ops/10 {
					t.Fatalf("workload %c: %d errors out of %d ops", w, r.Errors, r.Ops)
				}
			}
			dev, user := st.WriteAmp()
			if user <= 0 || dev <= 0 {
				t.Fatalf("write accounting: dev=%d user=%d", dev, user)
			}
		})
	}
}

// Figure 12's headline shape: Prism's PWB coalescing keeps its SSD WAF
// far below KVell's page-granularity RMW.
func TestWAFShapePrismBelowKVell(t *testing.T) {
	rc := tiny()
	measure := func(kind string) float64 {
		st, err := NewEngine(kind, RunConfig{Threads: rc.Threads, Records: rc.Records})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		Load(st, kind, rc)
		d0, u0 := st.WriteAmp()
		Run(st, kind, ycsb.WorkloadA, rc)
		d1, u1 := st.WriteAmp()
		return float64(d1-d0) / float64(u1-u0)
	}
	prism := measure(EnginePrism)
	kvell := measure(EngineKVell)
	if prism >= kvell {
		t.Fatalf("WAF shape violated: prism %.2f >= kvell %.2f", prism, kvell)
	}
	if prism > 2.0 {
		t.Fatalf("prism WAF %.2f implausibly high (PWB coalescing broken?)", prism)
	}
}

// Figure 11's headline shape: thread combining beats timeout-based async
// IO at high queue depth on read-only workloads.
func TestThreadCombiningBeatsTimeoutAtDepth(t *testing.T) {
	rc := tiny()
	measure := func(disable bool) float64 {
		p := RunConfig{Threads: rc.Threads, Records: rc.Records, QueueDepth: 64,
			PrismMut: func(o *core.Options) { o.DisableCombining = disable; o.SVCBytes = 64 << 10 }}
		st, err := NewEngine(EnginePrism, p)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		Load(st, EnginePrism, rc)
		return Run(st, EnginePrism, ycsb.WorkloadC, rc).KOpsPerSec()
	}
	tc := measure(false)
	ta := measure(true)
	if tc <= ta {
		t.Fatalf("TC (%.1f) not faster than TA (%.1f) at QD 64", tc, ta)
	}
}

// Figure 16's headline shape: Prism throughput grows with thread count.
func TestPrismScalesWithThreads(t *testing.T) {
	measure := func(threads int) float64 {
		rc := RunConfig{Threads: threads, Records: 3000, Ops: 8000}
		st, err := NewEngine(EnginePrism, RunConfig{Threads: threads, Records: rc.Records})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		Load(st, EnginePrism, rc)
		return Run(st, EnginePrism, ycsb.WorkloadB, rc).KOpsPerSec()
	}
	t2 := measure(2)
	t16 := measure(16)
	if t16 < t2*2 {
		t.Fatalf("no multicore scaling: 2 threads %.1fK, 16 threads %.1fK", t2, t16)
	}
}

func TestRecoveryExperimentRuns(t *testing.T) {
	tab := Recovery(RunConfig{Threads: 2, Records: 1500, Ops: 1000})
	if len(tab.Rows) != 2 {
		t.Fatalf("recovery rows: %v", tab.Rows)
	}
	for _, row := range tab.Rows {
		ms, err := strconv.ParseFloat(row[1], 64)
		if err != nil || ms <= 0 {
			t.Fatalf("recovery time cell %q", row[1])
		}
	}
}

func TestNVMSpaceExperiment(t *testing.T) {
	tab := NVMSpace(RunConfig{Threads: 2, Records: 2000, Ops: 100})
	if len(tab.Rows) != 3 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	perRec, err := strconv.ParseFloat(tab.Rows[2][2], 64)
	if err != nil {
		t.Fatal(err)
	}
	// HSIT is 16 B/record; the index adds key bytes + node overhead. The
	// paper reports ~54 B/record for 100M pairs.
	if perRec < 16 || perRec > 400 {
		t.Fatalf("NVM bytes/record = %.1f implausible", perRec)
	}
}

func TestTimelineCollection(t *testing.T) {
	st, err := NewEngine(EnginePrism, RunConfig{Threads: 2, Records: 1500})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rc := RunConfig{Threads: 2, Records: 1500, Ops: 3000, TimelineBucketNS: 1_000_000}
	Load(st, EnginePrism, rc)
	r := Run(st, EnginePrism, ycsb.WorkloadA, rc)
	if len(r.Timeline) == 0 {
		t.Fatal("no timeline points collected")
	}
	var total int64
	for _, pt := range r.Timeline {
		total += pt.Ops
	}
	if total != r.Ops {
		t.Fatalf("timeline accounts %d of %d ops", total, r.Ops)
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{
		Title:  "t",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n"},
	}
	out := tab.String()
	if out == "" || len(out) < 20 {
		t.Fatalf("render: %q", out)
	}
}

// TestBatchedRunner drives the client loop's three windows — one
// synchronous call, Batch-sized PutBatch/MultiGet runs, Pipeline async
// submissions — against an engine that has a native form of each (Prism)
// and one that has none (KVell): per-op counts stay exact in every mode,
// Prism's batch and async metrics move in their own mode and no other,
// and KVell, where every window falls back to per-op calls, measures the
// same run to the nanosecond and the device byte — which it would not if
// a window dropped, repeated or reordered an operation.
func TestBatchedRunner(t *testing.T) {
	type outcome struct {
		ops, virtNS, device, user int64
	}
	for _, kind := range []string{EnginePrism, EngineKVell} {
		var sync outcome
		for _, mode := range []struct {
			name            string
			batch, pipeline int
		}{{"sync", 0, 0}, {"batch", 8, 0}, {"pipeline", 0, 16}} {
			rc := tiny()
			if kind == EngineKVell {
				rc.Threads = 1 // deterministic: one client, no interleaving
			}
			rc.Batch, rc.Pipeline = mode.batch, mode.pipeline
			var got outcome
			var snap obs.Snapshot
			res := cell(kind, rc, "", []ycsb.Workload{ycsb.WorkloadA}, func(st engine.Store) {
				got.device, got.user = st.WriteAmp()
				if src, ok := st.(MetricsSource); ok {
					snap = src.Metrics()
				}
			})
			load, r := res[ycsb.Load], res[ycsb.WorkloadA]
			// Every generated op records exactly one latency sample.
			if want := int64(rc.Records / rc.Threads * rc.Threads); load.Ops != want || load.Errors != 0 {
				t.Errorf("%s %s: load counted %d ops (%d errors), want %d", kind, mode.name, load.Ops, load.Errors, want)
			}
			if want := int64(rc.Ops / rc.Threads * rc.Threads); r.Ops != want || r.Errors != 0 {
				t.Errorf("%s %s: run counted %d ops (%d errors), want %d", kind, mode.name, r.Ops, r.Errors, want)
			}
			got.ops, got.virtNS = r.Ops, load.VirtualNS+r.VirtualNS
			switch {
			case kind == EnginePrism:
				for _, m := range []struct {
					name string
					in   string
				}{{"core.batch_ops", "batch"}, {"core.async_ops", "pipeline"}} {
					for _, op := range []string{"put", "get"} {
						v, _ := snap.Get(m.name, map[string]string{"op": op})
						if moved := v.Value > 0; moved != (mode.name == m.in) {
							t.Errorf("prism %s: %s{op=%s} = %v", mode.name, m.name, op, v.Value)
						}
					}
				}
			case mode.name == "sync":
				sync = got
			case got != sync:
				t.Errorf("kvell %s: %+v, want the synchronous run's %+v", mode.name, got, sync)
			}
		}
	}
}

// TestRouterConfigReachesEveryCell: the one RunConfig carries the router
// and tier settings into every Prism store a cell opens, and an
// experiment that owns one of those axes overrides it.
func TestRouterConfigReachesEveryCell(t *testing.T) {
	splits := [][]byte{ycsb.Key(100)}
	opt := PrismOptions(RunConfig{Shards: 2, Replicas: 2, Placement: "range", SplitKeys: splits, TierSpec: "8M:5000,32M:1000"})
	if opt.Shards != 2 || opt.Replicas != 2 || opt.Placement != "range" || len(opt.SplitKeys) != 1 || !bytes.Equal(opt.SplitKeys[0], splits[0]) {
		t.Errorf("router options: shards %d, replicas %d, placement %q, splits %q", opt.Shards, opt.Replicas, opt.Placement, opt.SplitKeys)
	}
	if !opt.EnableTiering || opt.NumSSDs != 2 || len(opt.SSDConfigs) != 2 || opt.SSDConfigs[0].Size != 8<<20 || opt.SSDConfigs[1].Size != 32<<20 {
		t.Errorf("tier options: tiering %v, %d SSDs, configs %+v", opt.EnableTiering, opt.NumSSDs, opt.SSDConfigs)
	}

	// A cell opens what PrismOptions describes.
	cell(EnginePrism, RunConfig{Threads: 2, Records: 400, Shards: 2, Replicas: 2}, "", nil, func(st engine.Store) {
		if s := st.(*engine.PrismStore).S; s.NumShards() != 2 || s.Replicas() != 2 {
			t.Errorf("cell opened %d shards x %d replicas, want 2 x 2", s.NumShards(), s.Replicas())
		}
	})

	// ShardScale sweeps the shard count itself: a -shards 3 -replicas 2
	// run still measures 1, 2 and 4 unreplicated shards.
	tab := ShardScale(RunConfig{Threads: 2, Records: 400, Ops: 400, Shards: 3, Replicas: 2})
	var rows []string
	for _, row := range tab.Rows {
		rows = append(rows, row[0])
	}
	if strings.Join(rows, ",") != "1,2,4" {
		t.Errorf("ShardScale rows %v, want 1, 2, 4", rows)
	}
}

// TestCellRefusesFailedOps: a cell whose operations fail is not a
// measurement — with an HSIT of 16 entries under 200 records the load
// cannot finish, and the cell says so instead of returning a throughput.
func TestCellRefusesFailedOps(t *testing.T) {
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{EnginePrism, "LOAD", " of 200 operations failed"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q does not name %q", msg, want)
			}
		}
	}()
	cell(EnginePrism, RunConfig{Threads: 1, Records: 200, Ops: 100,
		PrismMut: func(o *core.Options) { o.HSITCapacity = 16 }}, "", []ycsb.Workload{ycsb.WorkloadC})
	t.Fatal("cell returned a result over failed operations")
}
