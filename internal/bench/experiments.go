package bench

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/kvell"
	"repro/internal/ycsb"
)

// stdWorkloads is the Figure 7 x-axis.
var stdWorkloads = []ycsb.Workload{ycsb.Load, ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC, ycsb.WorkloadD, ycsb.WorkloadE}

func wname(w ycsb.Workload) string {
	if w == ycsb.Load {
		return "LOAD"
	}
	if w == ycsb.Nutanix {
		return "Nutanix"
	}
	return "YCSB-" + string(w)
}

// runSuite loads each engine once and runs the listed workloads on it.
func runSuite(kinds []string, workloads []ycsb.Workload, p Params, rc RunConfig) map[string]map[ycsb.Workload]Result {
	out := map[string]map[ycsb.Workload]Result{}
	for _, kind := range kinds {
		pk := p
		if pk.Shards == 0 {
			pk.Shards = rc.Shards
		}
		if pk.Replicas == 0 {
			pk.Replicas = rc.Replicas
		}
		if pk.TierSpec == "" {
			pk.TierSpec = rc.TierSpec
		}
		if pk.Placement == "" {
			pk.Placement = rc.Placement
			pk.SplitKeys = rc.SplitKeys
		}
		if kind == EngineSLMDB {
			pk.Threads = 1 // open-source SLM-DB is single-threaded (§7.4)
		}
		st, err := NewEngine(kind, pk)
		if err != nil {
			panic(err)
		}
		res := map[ycsb.Workload]Result{}
		rck := rc
		if kind == EngineSLMDB {
			rck.Threads = 1
		}
		res[ycsb.Load] = Load(st, kind, rck)
		var samples []MetricSample
		for _, w := range workloads {
			if w == ycsb.Load {
				continue
			}
			r := Run(st, kind, w, rck)
			res[w] = r
			samples = append(samples, r.MetricSamples...)
		}
		rc.Metrics.Capture(st, kind, "suite", samples)
		st.Close()
		out[kind] = res
	}
	return out
}

// Fig7 reproduces Figure 7: YCSB throughput for Prism, KVell, MatrixKV,
// and RocksDB-NVM with the Table 1 cost-equalized configurations.
func Fig7(rc RunConfig) (Table, map[string]map[ycsb.Workload]Result) {
	rc.applyDefaults()
	p := Params{Threads: rc.Threads, Records: rc.Records, ValueSize: rc.ValueSize}
	kinds := []string{EnginePrism, EngineKVell, EngineMatrixKV, EngineRocksDBNVM}
	res := runSuite(kinds, stdWorkloads, p, rc)

	t := Table{
		Title:  "Figure 7: YCSB throughput (Kops/sec; E in Kops/sec of scans)",
		Header: append([]string{"engine"}, wnames(stdWorkloads)...),
	}
	for _, kind := range kinds {
		row := []string{kind}
		for _, w := range stdWorkloads {
			row = append(row, f1(res[kind][w].KOpsPerSec()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, res
}

func wnames(ws []ycsb.Workload) []string {
	var out []string
	for _, w := range ws {
		out = append(out, wname(w))
	}
	return out
}

// Table3 reproduces Table 3: average/median/p99 latency for A, C, E.
func Table3(rc RunConfig) Table {
	rc.applyDefaults()
	p := Params{Threads: rc.Threads, Records: rc.Records, ValueSize: rc.ValueSize}
	kinds := []string{EnginePrism, EngineKVell, EngineMatrixKV, EngineRocksDBNVM}
	ws := []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadC, ycsb.WorkloadE}
	res := runSuite(kinds, ws, p, rc)

	t := Table{
		Title:  "Table 3: latency (us)",
		Header: append([]string{"workload", "metric"}, kinds...),
	}
	for _, w := range ws {
		for _, m := range []string{"avg", "p50", "p99"} {
			row := []string{wname(w), m}
			for _, kind := range kinds {
				s := res[kind][w].Lat
				switch m {
				case "avg":
					row = append(row, f1(s.AvgUS))
				case "p50":
					row = append(row, f1(s.P50US))
				case "p99":
					row = append(row, f1(s.P99US))
				}
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// fig8Params sizes Prism as §7.4 does for the SLM-DB comparison: 64 MB
// SVC and 64 MB PWB analogues, single thread.
func fig8Params(rc RunConfig) (Params, Params) {
	prism := Params{Threads: 1, Records: rc.Records, ValueSize: rc.ValueSize,
		PrismMut: func(o *core.Options) {
			ds := int64(rc.Records) * int64(rc.ValueSize)
			o.SVCBytes = clamp64(ds/128, 32<<10, 1<<30)
			o.PWBBytesPerThread = int(clamp64(ds/128, 64<<10, 1<<30) / 16 * 16)
		}}
	slm := Params{Threads: 1, Records: rc.Records, ValueSize: rc.ValueSize}
	return prism, slm
}

// Fig8 reproduces Figure 8: Prism vs SLM-DB throughput, single-threaded.
func Fig8(rc RunConfig) (Table, map[string]map[ycsb.Workload]Result) {
	rc.applyDefaults()
	rc.Threads = 1
	prismP, slmP := fig8Params(rc)

	out := map[string]map[ycsb.Workload]Result{}
	for _, e := range []struct {
		kind string
		p    Params
	}{{EnginePrism, prismP}, {EngineSLMDB, slmP}} {
		st, err := NewEngine(e.kind, e.p)
		if err != nil {
			panic(err)
		}
		res := map[ycsb.Workload]Result{}
		res[ycsb.Load] = Load(st, e.kind, rc)
		for _, w := range stdWorkloads[1:] {
			res[w] = Run(st, e.kind, w, rc)
		}
		rc.Metrics.Capture(st, e.kind, "suite", nil)
		st.Close()
		out[e.kind] = res
	}
	t := Table{
		Title:  "Figure 8: Prism vs SLM-DB throughput (Kops/sec), 1 thread",
		Header: append([]string{"engine"}, wnames(stdWorkloads)...),
	}
	for _, kind := range []string{EnginePrism, EngineSLMDB} {
		row := []string{kind}
		for _, w := range stdWorkloads {
			row = append(row, f1(out[kind][w].KOpsPerSec()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, out
}

// Table4 reproduces Table 4: Prism vs SLM-DB latency on A, C, E.
func Table4(rc RunConfig) Table {
	rc.applyDefaults()
	_, res := Fig8(rc)
	t := Table{
		Title:  "Table 4: Prism vs SLM-DB latency (us), 1 thread",
		Header: []string{"workload", "metric", EnginePrism, EngineSLMDB},
	}
	for _, w := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadC, ycsb.WorkloadE} {
		for _, m := range []string{"avg", "p50", "p99"} {
			row := []string{wname(w), m}
			for _, kind := range []string{EnginePrism, EngineSLMDB} {
				s := res[kind][w].Lat
				switch m {
				case "avg":
					row = append(row, f1(s.AvgUS))
				case "p50":
					row = append(row, f1(s.P50US))
				case "p99":
					row = append(row, f1(s.P99US))
				}
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Fig9 reproduces Figure 9: relative throughput across zipfian
// coefficients 0.5-1.5, normalized to 0.99, for all five stores.
func Fig9(rc RunConfig) Table {
	rc.applyDefaults()
	if rc.Records > 5000 {
		rc.Records = 5000 // 125-cell sweep; keep each cell modest
	}
	if rc.Ops > 8000 {
		rc.Ops = 8000
	}
	zipfs := []float64{0.5, 0.9, 0.99, 1.2, 1.5}
	ws := []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC, ycsb.WorkloadD, ycsb.WorkloadE}
	t := Table{
		Title:  "Figure 9: relative throughput vs zipfian coefficient (normalized to 0.99)",
		Header: []string{"engine", "workload", "z0.5", "z0.9", "z0.99", "z1.2", "z1.5"},
	}
	for _, kind := range AllEngines {
		for _, w := range ws {
			abs := map[float64]float64{}
			for _, z := range zipfs {
				rcz := rc
				rcz.Zipfian = z
				p := Params{Threads: rc.Threads, Records: rc.Records, ValueSize: rc.ValueSize}
				if kind == EngineSLMDB {
					p.Threads = 1
					rcz.Threads = 1
				}
				st, err := NewEngine(kind, p)
				if err != nil {
					panic(err)
				}
				Load(st, kind, rcz)
				abs[z] = Run(st, kind, w, rcz).KOpsPerSec()
				st.Close()
			}
			base := abs[0.99]
			row := []string{kind, wname(w)}
			for _, z := range zipfs {
				if base > 0 {
					row = append(row, f2(abs[z]/base))
				} else {
					row = append(row, "-")
				}
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Fig10a reproduces Figure 10a: the large-dataset (1-billion-pair
// analogue) YCSB comparison of Prism vs KVell, at 4x the standard scale.
func Fig10a(rc RunConfig) Table {
	rc.applyDefaults()
	rc.Records *= 4
	p := Params{Threads: rc.Threads, Records: rc.Records, ValueSize: rc.ValueSize}
	kinds := []string{EnginePrism, EngineKVell}
	ws := []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC, ycsb.WorkloadD, ycsb.WorkloadE}
	res := runSuite(kinds, ws, p, rc)
	t := Table{
		Title:  "Figure 10a: large-dataset YCSB (Kops/sec), Prism vs KVell",
		Header: append([]string{"engine"}, wnames(ws)...),
		Notes:  []string{fmt.Sprintf("dataset scaled to %d records (paper: 1B)", rc.Records)},
	}
	for _, kind := range kinds {
		row := []string{kind}
		for _, w := range ws {
			row = append(row, f1(res[kind][w].KOpsPerSec()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig10b reproduces Figure 10b: the Nutanix production mix (57% updates,
// 41% reads, 2% scans).
func Fig10b(rc RunConfig) Table {
	rc.applyDefaults()
	p := Params{Threads: rc.Threads, Records: rc.Records, ValueSize: rc.ValueSize}
	kinds := []string{EnginePrism, EngineKVell}
	res := runSuite(kinds, []ycsb.Workload{ycsb.Nutanix}, p, rc)
	t := Table{
		Title:  "Figure 10b: Nutanix production workload (Kops/sec)",
		Header: []string{"engine", "Nutanix"},
	}
	for _, kind := range kinds {
		t.Rows = append(t.Rows, []string{kind, f1(res[kind][ycsb.Nutanix].KOpsPerSec())})
	}
	return t
}

// Fig11 reproduces Figure 11: thread combining (TC) vs timeout-based
// asynchronous IO (TA) on read-only YCSB-C while varying the queue depth.
func Fig11(rc RunConfig) Table {
	rc.applyDefaults()
	t := Table{
		Title:  "Figure 11: TC vs TA on YCSB-C with varying queue depth",
		Header: []string{"QD", "TC Kops", "TA Kops", "TC avg us", "TA avg us", "TC p50", "TA p50", "TC p99", "TA p99"},
	}
	for _, qd := range []int{1, 2, 4, 8, 16, 32, 64} {
		var r [2]Result
		for mode := 0; mode < 2; mode++ {
			disable := mode == 1
			p := Params{Threads: rc.Threads, Records: rc.Records, ValueSize: rc.ValueSize, QueueDepth: qd,
				PrismMut: func(o *core.Options) {
					o.DisableCombining = disable
					// Read from flash, not the cache: tiny SVC.
					o.SVCBytes = 64 << 10
				}}
			st, err := NewEngine(EnginePrism, p)
			if err != nil {
				panic(err)
			}
			Load(st, EnginePrism, rc)
			r[mode] = Run(st, EnginePrism, ycsb.WorkloadC, rc)
			scheme := "TC"
			if disable {
				scheme = "TA"
			}
			rc.Metrics.Capture(st, EnginePrism, fmt.Sprintf("fig11-%s-qd%d", scheme, qd), nil)
			st.Close()
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", qd),
			f1(r[0].KOpsPerSec()), f1(r[1].KOpsPerSec()),
			f1(r[0].Lat.AvgUS), f1(r[1].Lat.AvgUS),
			f1(r[0].Lat.P50US), f1(r[1].Lat.P50US),
			f1(r[0].Lat.P99US), f1(r[1].Lat.P99US),
		})
	}
	return t
}

// Fig12 reproduces Figure 12: SSD-level write amplification while
// updating the dataset, across data skews and two value sizes.
func Fig12(rc RunConfig) Table {
	rc.applyDefaults()
	t := Table{
		Title:  "Figure 12: SSD-level WAF vs skew (update-only)",
		Header: []string{"value", "engine", "z0.5", "z0.99", "z1.2"},
	}
	kinds := []string{EnginePrism, EngineKVell, EngineMatrixKV}
	for _, vs := range []int{512, 1024} {
		for _, kind := range kinds {
			row := []string{fmt.Sprintf("%dB", vs), kind}
			for _, z := range []float64{0.5, 0.99, 1.2} {
				rcz := rc
				rcz.ValueSize = vs
				rcz.Zipfian = z
				rcz.Ops = rc.Ops * 2 // update volume drives the metric
				p := Params{Threads: rc.Threads, Records: rc.Records, ValueSize: vs}
				st, err := NewEngine(kind, p)
				if err != nil {
					panic(err)
				}
				Load(st, kind, rcz)
				d0, u0 := st.WriteAmp()
				Run(st, kind, ycsb.WorkloadA, rcz) // 50% updates
				d1, u1 := st.WriteAmp()
				rc.Metrics.Capture(st, kind, fmt.Sprintf("fig12-%dB-z%.2f", vs, z), nil)
				st.Close()
				if u1 > u0 {
					row = append(row, f2(float64(d1-d0)/float64(u1-u0)))
				} else {
					row = append(row, "-")
				}
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Fig13 reproduces Figure 13: throughput with 1-8 SSDs on A and C.
func Fig13(rc RunConfig) Table {
	rc.applyDefaults()
	t := Table{
		Title:  "Figure 13: throughput vs number of SSDs (Kops/sec)",
		Header: []string{"workload", "engine", "1", "2", "4", "8"},
	}
	for _, w := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadC} {
		for _, kind := range []string{EnginePrism, EngineKVell} {
			row := []string{wname(w), kind}
			for _, n := range []int{1, 2, 4, 8} {
				p := Params{Threads: rc.Threads, Records: rc.Records, ValueSize: rc.ValueSize, NumSSDs: n}
				st, err := NewEngine(kind, p)
				if err != nil {
					panic(err)
				}
				Load(st, kind, rc)
				row = append(row, f1(Run(st, kind, w, rc).KOpsPerSec()))
				st.Close()
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Fig14 reproduces Figure 14: YCSB-C latency vs number of SSDs.
func Fig14(rc RunConfig) Table {
	rc.applyDefaults()
	t := Table{
		Title:  "Figure 14: YCSB-C latency (us) vs number of SSDs",
		Header: []string{"metric", "engine", "1", "2", "4", "8"},
	}
	type cell struct{ avg, p50, p99 float64 }
	res := map[string]map[int]cell{}
	for _, kind := range []string{EnginePrism, EngineKVell} {
		res[kind] = map[int]cell{}
		for _, n := range []int{1, 2, 4, 8} {
			p := Params{Threads: rc.Threads, Records: rc.Records, ValueSize: rc.ValueSize, NumSSDs: n}
			st, err := NewEngine(kind, p)
			if err != nil {
				panic(err)
			}
			Load(st, kind, rc)
			r := Run(st, kind, ycsb.WorkloadC, rc)
			st.Close()
			res[kind][n] = cell{r.Lat.AvgUS, r.Lat.P50US, r.Lat.P99US}
		}
	}
	for _, m := range []string{"avg", "p50", "p99"} {
		for _, kind := range []string{EnginePrism, EngineKVell} {
			row := []string{m, kind}
			for _, n := range []int{1, 2, 4, 8} {
				c := res[kind][n]
				switch m {
				case "avg":
					row = append(row, f1(c.avg))
				case "p50":
					row = append(row, f1(c.p50))
				case "p99":
					row = append(row, f1(c.p99))
				}
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Fig15a reproduces Figure 15a: throughput vs PWB size (LOAD, YCSB-A).
func Fig15a(rc RunConfig) Table {
	rc.applyDefaults()
	ds := int64(rc.Records) * int64(rc.ValueSize)
	t := Table{
		Title:  "Figure 15a: Prism throughput vs PWB size (Kops/sec)",
		Header: []string{"PWB/dataset", "LOAD", "YCSB-A"},
	}
	for _, frac := range []int{2, 4, 8, 16, 32} { // PWB = dataset * frac %
		per := clamp64(ds*int64(frac)/100/int64(rc.Threads), 32<<10, 1<<30) / 16 * 16
		p := Params{Threads: rc.Threads, Records: rc.Records, ValueSize: rc.ValueSize,
			PrismMut: func(o *core.Options) { o.PWBBytesPerThread = int(per) }}
		st, _ := NewEngine(EnginePrism, p)
		load := Load(st, EnginePrism, rc)
		a := Run(st, EnginePrism, ycsb.WorkloadA, rc)
		st.Close()
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d%%", frac), f1(load.KOpsPerSec()), f1(a.KOpsPerSec())})
	}
	return t
}

// Fig15b reproduces Figure 15b: throughput vs SVC size (YCSB-C, E).
func Fig15b(rc RunConfig) Table {
	rc.applyDefaults()
	ds := int64(rc.Records) * int64(rc.ValueSize)
	t := Table{
		Title:  "Figure 15b: Prism throughput vs SVC size (Kops/sec)",
		Header: []string{"SVC/dataset", "YCSB-C", "YCSB-E"},
	}
	for _, frac := range []int{4, 8, 12, 16, 20} {
		svc := clamp64(ds*int64(frac)/100, 64<<10, 1<<40)
		p := Params{Threads: rc.Threads, Records: rc.Records, ValueSize: rc.ValueSize,
			PrismMut: func(o *core.Options) { o.SVCBytes = svc }}
		st, _ := NewEngine(EnginePrism, p)
		Load(st, EnginePrism, rc)
		c := Run(st, EnginePrism, ycsb.WorkloadC, rc)
		e := Run(st, EnginePrism, ycsb.WorkloadE, rc)
		st.Close()
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d%%", frac), f1(c.KOpsPerSec()), f1(e.KOpsPerSec())})
	}
	return t
}

// Fig16 reproduces Figure 16: multicore scalability on A, C, E.
func Fig16(rc RunConfig) Table {
	rc.applyDefaults()
	threadsAxis := []int{10, 20, 30, 40}
	t := Table{
		Title:  "Figure 16: throughput (Kops/sec) vs simulated cores",
		Header: []string{"workload", "engine", "10", "20", "30", "40"},
	}
	for _, w := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadC, ycsb.WorkloadE} {
		for _, e := range []struct {
			label string
			kind  string
			qd    int
		}{
			{"prism", EnginePrism, 64},
			{"kvell(QD64)", EngineKVell, 64},
			{"kvell(QD1)", EngineKVell, 1},
			{"matrixkv", EngineMatrixKV, 64},
		} {
			row := []string{wname(w), e.label}
			for _, th := range threadsAxis {
				p := Params{Threads: th, Records: rc.Records, ValueSize: rc.ValueSize, QueueDepth: e.qd}
				rct := rc
				rct.Threads = th
				st, err := NewEngine(e.kind, p)
				if err != nil {
					panic(err)
				}
				Load(st, e.kind, rct)
				row = append(row, f1(Run(st, e.kind, w, rct).KOpsPerSec()))
				st.Close()
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Fig17 reproduces Figure 17: Prism throughput over time across Value
// Storage garbage collection, on a store sized to force GC.
func Fig17(rc RunConfig) (Table, []TimelinePoint, core.Stats) {
	rc.applyDefaults()
	rc.Ops *= 4
	ds := int64(rc.Records) * int64(rc.ValueSize)
	p := Params{Threads: rc.Threads, Records: rc.Records, ValueSize: rc.ValueSize,
		PrismMut: func(o *core.Options) {
			// Tight Value Storage so update churn forces GC.
			o.SSDBytes = clamp64(ds*3/int64(o.NumSSDs), 4<<20, 1<<40)
		}}
	st, err := NewEngine(EnginePrism, p)
	if err != nil {
		panic(err)
	}
	Load(st, EnginePrism, rc)
	rc.TimelineBucketNS = 20 * 1_000_000 // 20 virtual ms per sample
	if rc.Metrics != nil && rc.SampleNS == 0 {
		rc.SampleNS = rc.TimelineBucketNS // metrics timeline on the same grid
	}
	r := Run(st, EnginePrism, ycsb.WorkloadA, rc)
	ps := st.(*engine.PrismStore)
	stats := ps.S.Stats()
	rc.Metrics.Capture(st, EnginePrism, "fig17", r.MetricSamples)
	st.Close()

	t := Table{
		Title:  "Figure 17: YCSB-A throughput timeline across GC (Kops/sec per 20ms window)",
		Header: []string{"t(ms)", "Kops/sec"},
		Notes:  []string{fmt.Sprintf("GC runs: %d, chunks moved: %d", stats.VS.GCRuns, stats.VS.GCLiveMoved)},
	}
	for _, pt := range r.Timeline {
		kops := float64(pt.Ops) / (float64(rc.TimelineBucketNS) / 1e9) / 1e3
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", pt.NS/1_000_000), f1(kops)})
	}
	return t, r.Timeline, stats
}

// Ablation reproduces §7.6 "impact of individual techniques": each Prism
// mechanism toggled off, measured on the workload it targets.
func Ablation(rc RunConfig) Table {
	rc.applyDefaults()
	t := Table{
		Title:  "Ablation (§7.6): Prism variants (Kops/sec)",
		Header: []string{"variant", "workload", "Kops/sec", "vs full"},
	}
	cases := []struct {
		name string
		w    ycsb.Workload
		mut  func(*core.Options)
	}{
		{"full", ycsb.WorkloadA, nil},
		{"sync-VS-writes (no §5.2)", ycsb.WorkloadA, func(o *core.Options) { o.SyncVSWrites = true }},
		{"full", ycsb.WorkloadC, nil},
		{"timeout-IO (no §5.3 TC)", ycsb.WorkloadC, func(o *core.Options) { o.DisableCombining = true }},
		{"no SVC (no §4.4)", ycsb.WorkloadC, func(o *core.Options) { o.DisableSVC = true }},
		{"full", ycsb.WorkloadE, nil},
		{"no SVC (no §4.4)", ycsb.WorkloadE, func(o *core.Options) { o.DisableSVC = true }},
		{"no scan-sort (§4.4 step 5-6 off)", ycsb.WorkloadE, func(o *core.Options) { o.DisableScanSort = true }},
	}
	full := map[ycsb.Workload]float64{}
	for _, c := range cases {
		p := Params{Threads: rc.Threads, Records: rc.Records, ValueSize: rc.ValueSize, PrismMut: c.mut}
		st, err := NewEngine(EnginePrism, p)
		if err != nil {
			panic(err)
		}
		Load(st, EnginePrism, rc)
		r := Run(st, EnginePrism, c.w, rc)
		st.Close()
		k := r.KOpsPerSec()
		rel := "-"
		if c.mut == nil {
			full[c.w] = k
		} else if full[c.w] > 0 {
			rel = f2(k / full[c.w])
		} else {
			rel = "1.00"
		}
		t.Rows = append(t.Rows, []string{c.name, wname(c.w), f1(k), rel})
	}
	return t
}

// NVMSpace reproduces the §7.6 NVM-space measurement: bytes of NVM per
// record for the key index and HSIT.
func NVMSpace(rc RunConfig) Table {
	rc.applyDefaults()
	p := Params{Threads: rc.Threads, Records: rc.Records, ValueSize: rc.ValueSize}
	st, err := NewEngine(EnginePrism, p)
	if err != nil {
		panic(err)
	}
	Load(st, EnginePrism, rc)
	ps := st.(*engine.PrismStore)
	stats := ps.S.Stats()
	st.Close()
	total := stats.IndexSpaceBytes + stats.HSITSpaceBytes
	t := Table{
		Title:  "NVM space (§7.6): Persistent Key Index + HSIT",
		Header: []string{"component", "bytes", "bytes/record"},
	}
	n := int64(rc.Records)
	t.Rows = append(t.Rows,
		[]string{"key index", fmt.Sprintf("%d", stats.IndexSpaceBytes), f1(float64(stats.IndexSpaceBytes) / float64(n))},
		[]string{"HSIT", fmt.Sprintf("%d", stats.HSITSpaceBytes), f1(float64(stats.HSITSpaceBytes) / float64(n))},
		[]string{"total", fmt.Sprintf("%d", total), f1(float64(total) / float64(n))},
	)
	t.Notes = append(t.Notes, fmt.Sprintf("paper: ~5.4 GB for 100M pairs = ~54 B/record"))
	return t
}

// Recovery reproduces the §7.6 recovery-time measurement: crash after
// loading, then rebuild. Prism recovers from HSIT couplings; KVell must
// scan its entire slabs.
func Recovery(rc RunConfig) Table {
	rc.applyDefaults()
	t := Table{
		Title:  "Recovery time (§7.6), virtual ms",
		Header: []string{"engine", "recovery ms", "live keys"},
	}

	pp := Params{Threads: rc.Threads, Records: rc.Records, ValueSize: rc.ValueSize}
	pst, err := NewEngine(EnginePrism, pp)
	if err != nil {
		panic(err)
	}
	Load(pst, EnginePrism, rc)
	ps := pst.(*engine.PrismStore)
	ps.S.Crash()
	rep, err := ps.S.Recover()
	if err != nil {
		panic(err)
	}
	pst.Close()
	t.Rows = append(t.Rows, []string{EnginePrism, f1(float64(rep.VirtualNS) / 1e6), fmt.Sprintf("%d", rep.LiveKeys)})

	kst, err := NewEngine(EngineKVell, pp)
	if err != nil {
		panic(err)
	}
	Load(kst, EngineKVell, rc)
	ks := kst.(*kvell.Store)
	ns := ks.Recover()
	kst.Close()
	t.Rows = append(t.Rows, []string{EngineKVell, f1(float64(ns) / 1e6), fmt.Sprintf("%d", rc.Records)})
	return t
}

// ShardScale measures horizontal scale-out: the same workload against
// Prism behind the hash router at increasing shard counts. Each point
// keeps the full per-shard sizing, so N shards mean N independent
// device sets — the Valkey-style cluster scaling move, measured in
// aggregate virtual-time throughput.
func ShardScale(rc RunConfig) Table {
	rc.applyDefaults()
	t := Table{
		Title:  "Shard scale-out: Prism throughput vs shard count (Kops/sec)",
		Header: []string{"shards", "LOAD Kops", "YCSB-A Kops", "YCSB-C Kops", "A speedup"},
		Notes:  []string{"every point keeps the full per-shard sizing: N shards = N independent NVM/SSD sets"},
	}
	var base float64
	for _, n := range []int{1, 2, 4} {
		p := Params{Threads: rc.Threads, Records: rc.Records, ValueSize: rc.ValueSize, Shards: n}
		st, err := NewEngine(EnginePrism, p)
		if err != nil {
			panic(err)
		}
		load := Load(st, EnginePrism, rc)
		ra := Run(st, EnginePrism, ycsb.WorkloadA, rc)
		rcc := Run(st, EnginePrism, ycsb.WorkloadC, rc)
		rc.Metrics.Capture(st, EnginePrism, fmt.Sprintf("shardscale-%d", n), nil)
		st.Close()
		a := ra.KOpsPerSec()
		if n == 1 {
			base = a
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			f1(load.KOpsPerSec()), f1(a), f1(rcc.KOpsPerSec()),
			fmt.Sprintf("%.2fx", a/base),
		})
	}
	return t
}

// PipelineDepth measures the async submission pipeline: one thread
// (one "connection") issues put bursts of increasing depth through
// PutAsync and drains between bursts, so depth-N keeps N submissions in
// flight. Deeper pipelines let the admission loop coalesce a burst into
// a few windows — one epoch enter and one PWB publish per window — and
// overlap the fixed per-op NVM latencies on stage clocks, leaving only
// the shared-channel transfer residue serialized (the §5.4 TCQ shape).
// A 4-shard column shows pipelining compounding with scale-out.
func PipelineDepth(rc RunConfig) Table {
	rc.applyDefaults()
	t := Table{
		Title:  "Pipeline depth: single-connection async Put throughput (Kops/sec)",
		Header: []string{"depth", "Kops/sec", "speedup", "4-shard Kops/sec", "4-shard speedup"},
		Notes: []string{
			"1 thread, 128 B values, put-only: burst of <depth> PutAsync then drain",
			"speedup is vs depth 1 at the same shard count",
			"PWB sized to hold the sweep so reclamation does not serialize the depth axis",
		},
	}
	// The sweep isolates submission overlap: the PWB must hold the whole
	// run, or reclamation wraps serialize every depth equally and the
	// curve flattens (that pressure regime is Fig14's subject, not this).
	mut := func(o *core.Options) { o.PWBBytesPerThread = 8 << 20 }
	base := map[int]float64{}
	for _, d := range []int{1, 2, 4, 8, 16, 32} {
		var kops [2]float64
		for si, shards := range []int{1, 4} {
			p := Params{Threads: 1, Records: rc.Records, ValueSize: 128, Shards: shards, PrismMut: mut}
			st, err := NewEngine(EnginePrism, p)
			if err != nil {
				panic(err)
			}
			prc := rc
			prc.Threads = 1
			prc.ValueSize = 128
			prc.Pipeline = d
			r := Load(st, EnginePrism, prc)
			rc.Metrics.Capture(st, EnginePrism, fmt.Sprintf("pipelinedepth-%d-shards%d", d, shards), nil)
			st.Close()
			kops[si] = r.KOpsPerSec()
			if d == 1 {
				base[shards] = kops[si]
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", d),
			f1(kops[0]), fmt.Sprintf("%.2fx", kops[0]/base[1]),
			f1(kops[1]), fmt.Sprintf("%.2fx", kops[1]/base[4]),
		})
	}
	return t
}

// Experiments maps CLI names to runners printing their tables.
var Experiments = map[string]func(rc RunConfig) []Table{
	"fig7": func(rc RunConfig) []Table {
		t, _ := Fig7(rc)
		return []Table{t}
	},
	"table3":     func(rc RunConfig) []Table { return []Table{Table3(rc)} },
	"fig8":       func(rc RunConfig) []Table { t, _ := Fig8(rc); return []Table{t} },
	"table4":     func(rc RunConfig) []Table { return []Table{Table4(rc)} },
	"fig9":       func(rc RunConfig) []Table { return []Table{Fig9(rc)} },
	"fig10a":     func(rc RunConfig) []Table { return []Table{Fig10a(rc)} },
	"fig10b":     func(rc RunConfig) []Table { return []Table{Fig10b(rc)} },
	"fig11":      func(rc RunConfig) []Table { return []Table{Fig11(rc)} },
	"fig12":      func(rc RunConfig) []Table { return []Table{Fig12(rc)} },
	"fig13":      func(rc RunConfig) []Table { return []Table{Fig13(rc)} },
	"fig14":      func(rc RunConfig) []Table { return []Table{Fig14(rc)} },
	"fig15a":     func(rc RunConfig) []Table { return []Table{Fig15a(rc)} },
	"fig15b":     func(rc RunConfig) []Table { return []Table{Fig15b(rc)} },
	"fig16":      func(rc RunConfig) []Table { return []Table{Fig16(rc)} },
	"fig17":      func(rc RunConfig) []Table { t, _, _ := Fig17(rc); return []Table{t} },
	"ablation":   func(rc RunConfig) []Table { return []Table{Ablation(rc)} },
	"nvmspace":   func(rc RunConfig) []Table { return []Table{NVMSpace(rc)} },
	"recovery":   func(rc RunConfig) []Table { return []Table{Recovery(rc)} },
	"shardscale": func(rc RunConfig) []Table { return []Table{ShardScale(rc)} },
	"pipelinedepth": func(rc RunConfig) []Table {
		return []Table{PipelineDepth(rc)}
	},
	"replication": func(rc RunConfig) []Table { return []Table{Replication(rc)} },
	"tiering":     func(rc RunConfig) []Table { return []Table{Tiering(rc)} },
	"rangescan":   func(rc RunConfig) []Table { return []Table{RangeScan(rc)} },
	"wire":        func(rc RunConfig) []Table { return []Table{Wire(rc)} },
}

// ExperimentNames returns the sorted experiment list.
func ExperimentNames() []string {
	var names []string
	for n := range Experiments {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
