package bench

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/histogram"
	"repro/internal/kvell"
	"repro/internal/ycsb"
)

// stdWorkloads is the Figure 7 x-axis.
var stdWorkloads = []ycsb.Workload{ycsb.Load, ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC, ycsb.WorkloadD, ycsb.WorkloadE}

// aToE is stdWorkloads without the load phase, aCE the latency tables' rows.
var (
	aToE = stdWorkloads[1:]
	aCE  = []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadC, ycsb.WorkloadE}
)

func wname(w ycsb.Workload) string {
	if w == ycsb.Load {
		return "LOAD"
	}
	if w == ycsb.Nutanix {
		return "Nutanix"
	}
	return "YCSB-" + string(w)
}

func wnames(ws []ycsb.Workload) []string {
	var out []string
	for _, w := range ws {
		out = append(out, wname(w))
	}
	return out
}

// loaded opens a kind engine sized by rc and loads it: how every cell
// starts, and the four experiments that keep their own store. It panics
// if the engine does not open or the load counts a failed operation.
func loaded(kind string, rc RunConfig) (engine.Store, Result) {
	st, err := NewEngine(kind, rc)
	if err != nil {
		panic(err)
	}
	return st, Load(st, kind, rc).mustSucceed()
}

// cell is the unit every experiment is a grid of: it opens and loads a
// kind engine sized by rc, runs the workloads in order on that one store
// (LOAD in the list names the load phase's result, it is not run twice),
// hands the still-open store to each then — a metrics read, a crash and
// recovery, a fault drill — captures the store's metrics under tag (no
// capture for an empty tag) and closes it. Like loaded, it panics if a
// phase counts a failed operation.
func cell(kind string, rc RunConfig, tag string, workloads []ycsb.Workload, then ...func(engine.Store)) map[ycsb.Workload]Result {
	st, load := loaded(kind, rc)
	defer st.Close()
	res := map[ycsb.Workload]Result{ycsb.Load: load}
	var samples []MetricSample
	for _, w := range workloads {
		if w == ycsb.Load {
			continue
		}
		r := Run(st, kind, w, rc).mustSucceed()
		res[w] = r
		samples = append(samples, r.MetricSamples...)
	}
	for _, f := range then {
		f(st)
	}
	if tag != "" {
		rc.Metrics.Capture(st, kind, tag, samples)
	}
	return res
}

// grid is one cell per engine, each captured as "suite".
func grid(kinds []string, rc RunConfig, workloads []ycsb.Workload) map[string]map[ycsb.Workload]Result {
	out := map[string]map[ycsb.Workload]Result{}
	for _, kind := range kinds {
		out[kind] = cell(kind, rc, "suite", workloads)
	}
	return out
}

// kopsRow is a table row: label, then the throughput of each workload.
func kopsRow(label string, res map[ycsb.Workload]Result, ws []ycsb.Workload) []string {
	row := []string{label}
	for _, w := range ws {
		row = append(row, f1(res[w].KOpsPerSec()))
	}
	return row
}

// kopsTable prints a grid's throughput: a row per engine, a column per
// workload.
func kopsTable(title string, kinds []string, ws []ycsb.Workload, res map[string]map[ycsb.Workload]Result) Table {
	t := Table{Title: title, Header: append([]string{"engine"}, wnames(ws)...)}
	for _, kind := range kinds {
		t.Rows = append(t.Rows, kopsRow(kind, res[kind], ws))
	}
	return t
}

// latMetrics is what every latency table prints of a distribution.
var latMetrics = []struct {
	name string
	of   func(histogram.Summary) float64
}{
	{"avg", func(s histogram.Summary) float64 { return s.AvgUS }},
	{"p50", func(s histogram.Summary) float64 { return s.P50US }},
	{"p99", func(s histogram.Summary) float64 { return s.P99US }},
}

// latTable prints a grid's latency: a row per workload and metric, a
// column per engine.
func latTable(title string, kinds []string, ws []ycsb.Workload, res map[string]map[ycsb.Workload]Result) Table {
	t := Table{Title: title, Header: append([]string{"workload", "metric"}, kinds...)}
	for _, w := range ws {
		for _, m := range latMetrics {
			row := []string{wname(w), m.name}
			for _, kind := range kinds {
				row = append(row, f1(m.of(res[kind][w].Lat)))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// fig7Engines are the Table 1 cost-equalized configurations.
var fig7Engines = []string{EnginePrism, EngineKVell, EngineMatrixKV, EngineRocksDBNVM}

// Fig7 reproduces Figure 7: YCSB throughput for Prism, KVell, MatrixKV,
// and RocksDB-NVM with the Table 1 cost-equalized configurations.
func Fig7(rc RunConfig) (Table, map[string]map[ycsb.Workload]Result) {
	res := grid(fig7Engines, rc, stdWorkloads)
	return kopsTable("Figure 7: YCSB throughput (Kops/sec; E in Kops/sec of scans)", fig7Engines, stdWorkloads, res), res
}

// Table3 reproduces Table 3: average/median/p99 latency for A, C, E.
func Table3(rc RunConfig) Table {
	return latTable("Table 3: latency (us)", fig7Engines, aCE, grid(fig7Engines, rc, aCE))
}

// prismKVell is the pair the paper's closer comparisons are between.
var prismKVell = []string{EnginePrism, EngineKVell}

// fig8Engines: the open-source SLM-DB is single-threaded (§7.4), so the
// comparison is.
var fig8Engines = []string{EnginePrism, EngineSLMDB}

// Fig8 reproduces Figure 8: Prism vs SLM-DB throughput, single-threaded,
// with Prism sized as §7.4 does for the comparison: 64 MB SVC and 64 MB
// PWB analogues.
func Fig8(rc RunConfig) (Table, map[string]map[ycsb.Workload]Result) {
	rc.applyDefaults()
	rc.Threads = 1
	ds := rc.dataset()
	rc.PrismMut = func(o *core.Options) {
		o.SVCBytes = clamp64(ds/128, 32<<10, 1<<30)
		o.PWBBytesPerThread = int(clamp64(ds/128, 64<<10, 1<<30) / 16 * 16)
	}
	res := grid(fig8Engines, rc, stdWorkloads)
	return kopsTable("Figure 8: Prism vs SLM-DB throughput (Kops/sec), 1 thread", fig8Engines, stdWorkloads, res), res
}

// Table4 reproduces Table 4: Prism vs SLM-DB latency on A, C, E.
func Table4(rc RunConfig) Table {
	_, res := Fig8(rc)
	return latTable("Table 4: Prism vs SLM-DB latency (us), 1 thread", fig8Engines, aCE, res)
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
	t := Table{
		Title:  "Figure 9: relative throughput vs zipfian coefficient (normalized to 0.99)",
		Header: []string{"engine", "workload", "z0.5", "z0.9", "z0.99", "z1.2", "z1.5"},
	}
	for _, kind := range AllEngines {
		for _, w := range aToE {
			abs := map[float64]float64{}
			for _, rc.Zipfian = range zipfs {
				abs[rc.Zipfian] = cell(kind, rc, "", []ycsb.Workload{w})[w].KOpsPerSec()
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
	t := kopsTable("Figure 10a: large-dataset YCSB (Kops/sec), Prism vs KVell", prismKVell, aToE, grid(prismKVell, rc, aToE))
	t.Notes = []string{fmt.Sprintf("dataset scaled to %d records (paper: 1B)", rc.Records)}
	return t
}

// Fig10b reproduces Figure 10b: the Nutanix production mix (57% updates,
// 41% reads, 2% scans).
func Fig10b(rc RunConfig) Table {
	ws := []ycsb.Workload{ycsb.Nutanix}
	return kopsTable("Figure 10b: Nutanix production workload (Kops/sec)", prismKVell, ws, grid(prismKVell, rc, ws))
}

// Fig11 reproduces Figure 11: thread combining (TC) vs timeout-based
// asynchronous IO (TA) on read-only YCSB-C while varying the queue depth.
func Fig11(rc RunConfig) Table {
	t := Table{
		Title:  "Figure 11: TC vs TA on YCSB-C with varying queue depth",
		Header: []string{"QD", "TC Kops", "TA Kops", "TC avg us", "TA avg us", "TC p50", "TA p50", "TC p99", "TA p99"},
	}
	for _, rc.QueueDepth = range []int{1, 2, 4, 8, 16, 32, 64} {
		var r [2]Result
		for mode, scheme := range []string{"TC", "TA"} {
			rc.PrismMut = func(o *core.Options) {
				o.DisableCombining = scheme == "TA"
				// Read from flash, not the cache: tiny SVC.
				o.SVCBytes = 64 << 10
			}
			tag := fmt.Sprintf("fig11-%s-qd%d", scheme, rc.QueueDepth)
			r[mode] = cell(EnginePrism, rc, tag, []ycsb.Workload{ycsb.WorkloadC})[ycsb.WorkloadC]
		}
		row := []string{fmt.Sprintf("%d", rc.QueueDepth), f1(r[0].KOpsPerSec()), f1(r[1].KOpsPerSec())}
		for _, m := range latMetrics {
			row = append(row, f1(m.of(r[0].Lat)), f1(m.of(r[1].Lat)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig12 reproduces Figure 12: SSD-level write amplification while
// updating the dataset, across data skews and two value sizes. It reads
// the device counters between the load and the run, so it opens its own
// store.
func Fig12(rc RunConfig) Table {
	rc.applyDefaults()
	rc.Ops *= 2 // update volume drives the metric
	t := Table{
		Title:  "Figure 12: SSD-level WAF vs skew (update-only)",
		Header: []string{"value", "engine", "z0.5", "z0.99", "z1.2"},
	}
	for _, rc.ValueSize = range []int{512, 1024} {
		for _, kind := range []string{EnginePrism, EngineKVell, EngineMatrixKV} {
			row := []string{fmt.Sprintf("%dB", rc.ValueSize), kind}
			for _, rc.Zipfian = range []float64{0.5, 0.99, 1.2} {
				st, _ := loaded(kind, rc)
				d0, u0 := st.WriteAmp()
				Run(st, kind, ycsb.WorkloadA, rc).mustSucceed() // 50% updates
				d1, u1 := st.WriteAmp()
				rc.Metrics.Capture(st, kind, fmt.Sprintf("fig12-%dB-z%.2f", rc.ValueSize, rc.Zipfian), nil)
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

// ssdAxis is the x-axis of Figures 13 and 14.
var ssdAxis = []int{1, 2, 4, 8}

// Fig13 reproduces Figure 13: throughput with 1-8 SSDs on A and C.
func Fig13(rc RunConfig) Table {
	t := Table{
		Title:  "Figure 13: throughput vs number of SSDs (Kops/sec)",
		Header: []string{"workload", "engine", "1", "2", "4", "8"},
	}
	for _, w := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadC} {
		for _, kind := range prismKVell {
			row := []string{wname(w), kind}
			for _, rc.NumSSDs = range ssdAxis {
				row = append(row, f1(cell(kind, rc, "", []ycsb.Workload{w})[w].KOpsPerSec()))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Fig14 reproduces Figure 14: YCSB-C latency vs number of SSDs.
func Fig14(rc RunConfig) Table {
	t := Table{
		Title:  "Figure 14: YCSB-C latency (us) vs number of SSDs",
		Header: []string{"metric", "engine", "1", "2", "4", "8"},
	}
	lat := map[string][]histogram.Summary{}
	for _, kind := range prismKVell {
		for _, rc.NumSSDs = range ssdAxis {
			lat[kind] = append(lat[kind], cell(kind, rc, "", []ycsb.Workload{ycsb.WorkloadC})[ycsb.WorkloadC].Lat)
		}
	}
	for _, m := range latMetrics {
		for _, kind := range prismKVell {
			row := []string{m.name, kind}
			for _, s := range lat[kind] {
				row = append(row, f1(m.of(s)))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// sweep is Figures 15a/b: Prism's throughput on ws, a row per share of
// the dataset given to the component that size sets from it.
func sweep(rc RunConfig, title, axis string, pcts []int, ws []ycsb.Workload, size func(o *core.Options, share int64)) Table {
	rc.applyDefaults()
	t := Table{Title: title, Header: append([]string{axis}, wnames(ws)...)}
	for _, pct := range pcts {
		rc.PrismMut = func(o *core.Options) { size(o, rc.dataset()*int64(pct)/100) }
		t.Rows = append(t.Rows, kopsRow(fmt.Sprintf("%d%%", pct), cell(EnginePrism, rc, "", ws), ws))
	}
	return t
}

// Fig15a reproduces Figure 15a: throughput vs PWB size (LOAD, YCSB-A).
func Fig15a(rc RunConfig) Table {
	return sweep(rc, "Figure 15a: Prism throughput vs PWB size (Kops/sec)", "PWB/dataset",
		[]int{2, 4, 8, 16, 32}, []ycsb.Workload{ycsb.Load, ycsb.WorkloadA},
		func(o *core.Options, share int64) {
			o.PWBBytesPerThread = int(clamp64(share/int64(o.NumThreads), 32<<10, 1<<30) / 16 * 16)
		})
}

// Fig15b reproduces Figure 15b: throughput vs SVC size (YCSB-C, E).
func Fig15b(rc RunConfig) Table {
	return sweep(rc, "Figure 15b: Prism throughput vs SVC size (Kops/sec)", "SVC/dataset",
		[]int{4, 8, 12, 16, 20}, []ycsb.Workload{ycsb.WorkloadC, ycsb.WorkloadE},
		func(o *core.Options, share int64) { o.SVCBytes = clamp64(share, 64<<10, 1<<40) })
}

// Fig16 reproduces Figure 16: multicore scalability on A, C, E.
func Fig16(rc RunConfig) Table {
	t := Table{
		Title:  "Figure 16: throughput (Kops/sec) vs simulated cores",
		Header: []string{"workload", "engine", "10", "20", "30", "40"},
	}
	for _, w := range aCE {
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
			rc.QueueDepth = e.qd
			for _, rc.Threads = range []int{10, 20, 30, 40} {
				row = append(row, f1(cell(e.kind, rc, "", []ycsb.Workload{w})[w].KOpsPerSec()))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Fig17 reproduces Figure 17: Prism throughput over time across Value
// Storage garbage collection, on a store sized to force GC. Beside the
// table and the timeline it returns what the table's note prints: the GC
// passes run and the live values they moved (vs.gc_runs, vs.gc_live_moved).
func Fig17(rc RunConfig) (t Table, timeline []TimelinePoint, gcRuns, gcMoved int64) {
	rc.applyDefaults()
	rc.Ops *= 4
	ds := rc.dataset()
	rc.PrismMut = func(o *core.Options) {
		// Tight Value Storage so update churn forces GC.
		o.SSDBytes = clamp64(ds*3/int64(o.NumSSDs), 4<<20, 1<<40)
	}
	rc.TimelineBucketNS = 20 * 1_000_000 // 20 virtual ms per sample
	if rc.Metrics != nil && rc.SampleNS == 0 {
		rc.SampleNS = rc.TimelineBucketNS // metrics timeline on the same grid
	}
	r := cell(EnginePrism, rc, "fig17", []ycsb.Workload{ycsb.WorkloadA}, func(st engine.Store) {
		m := st.(*engine.PrismStore).Metrics()
		gcRuns, gcMoved = int64(m.Sum("vs.gc_runs")), int64(m.Sum("vs.gc_live_moved"))
	})[ycsb.WorkloadA]

	t = Table{
		Title:  "Figure 17: YCSB-A throughput timeline across GC (Kops/sec per 20ms window)",
		Header: []string{"t(ms)", "Kops/sec"},
		Notes:  []string{fmt.Sprintf("GC runs: %d, chunks moved: %d", gcRuns, gcMoved)},
	}
	for _, pt := range r.Timeline {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", pt.NS/1_000_000), f1(kops(pt.Ops, rc.TimelineBucketNS))})
	}
	return t, r.Timeline, gcRuns, gcMoved
}

// Ablation reproduces §7.6 "impact of individual techniques": each Prism
// mechanism toggled off, measured on the workload it targets.
func Ablation(rc RunConfig) Table {
	t := Table{
		Title:  "Ablation (§7.6): Prism variants (Kops/sec)",
		Header: []string{"variant", "workload", "Kops/sec", "vs full"},
	}
	full := map[ycsb.Workload]float64{}
	for _, c := range []struct {
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
	} {
		rc.PrismMut = c.mut
		k := cell(EnginePrism, rc, "", []ycsb.Workload{c.w})[c.w].KOpsPerSec()
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
	var index, table int64
	cell(EnginePrism, rc, "", nil, func(st engine.Store) {
		m := st.(*engine.PrismStore).Metrics()
		index, table = int64(m.Sum("index.space_bytes")), int64(m.Sum("hsit.space_bytes"))
	})
	t := Table{
		Title:  "NVM space (§7.6): Persistent Key Index + HSIT",
		Header: []string{"component", "bytes", "bytes/record"},
		Notes:  []string{"paper: ~5.4 GB for 100M pairs = ~54 B/record"},
	}
	for _, c := range []struct {
		name  string
		bytes int64
	}{
		{"key index", index},
		{"HSIT", table},
		{"total", index + table},
	} {
		t.Rows = append(t.Rows, []string{c.name, fmt.Sprintf("%d", c.bytes), f1(float64(c.bytes) / float64(rc.Records))})
	}
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
	cell(EnginePrism, rc, "", nil, func(st engine.Store) {
		s := st.(*engine.PrismStore).S
		s.Crash()
		rep, err := s.Recover()
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{EnginePrism, f1(float64(rep.VirtualNS) / 1e6), fmt.Sprintf("%d", rep.LiveKeys)})
	})
	cell(EngineKVell, rc, "", nil, func(st engine.Store) {
		ns := st.(*kvell.Store).Recover()
		t.Rows = append(t.Rows, []string{EngineKVell, f1(float64(ns) / 1e6), fmt.Sprintf("%d", rc.Records)})
	})
	return t
}

// ShardScale measures horizontal scale-out: the same workload against
// Prism behind the hash router at increasing shard counts. Each point
// keeps the full per-shard sizing, so N shards mean N independent
// device sets — the Valkey-style cluster scaling move, measured in
// aggregate virtual-time throughput.
func ShardScale(rc RunConfig) Table {
	t := Table{
		Title:  "Shard scale-out: Prism throughput vs shard count (Kops/sec)",
		Header: []string{"shards", "LOAD Kops", "YCSB-A Kops", "YCSB-C Kops", "A speedup"},
		Notes:  []string{"every point keeps the full per-shard sizing: N shards = N independent NVM/SSD sets"},
	}
	ws := []ycsb.Workload{ycsb.Load, ycsb.WorkloadA, ycsb.WorkloadC}
	rc.Replicas, rc.Placement, rc.SplitKeys = 0, "", nil // the sweep owns the router
	var base float64
	for _, rc.Shards = range []int{1, 2, 4} {
		res := cell(EnginePrism, rc, fmt.Sprintf("shardscale-%d", rc.Shards), ws)
		a := res[ycsb.WorkloadA].KOpsPerSec()
		if rc.Shards == 1 {
			base = a
		}
		t.Rows = append(t.Rows, append(kopsRow(fmt.Sprintf("%d", rc.Shards), res, ws), fmt.Sprintf("%.2fx", a/base)))
	}
	return t
}

// PipelineDepth measures the async submission pipeline: one thread
// (one "connection") issues put bursts of increasing depth through
// PutAsync and drains between bursts, so depth-N keeps N submissions in
// flight. Deeper pipelines let the admission loop coalesce a burst into
// a few windows — one epoch enter and one PWB publish per window — and
// overlap the fixed per-op NVM latencies as steps of one frame, leaving only
// the shared-channel transfer residue serialized (the §5.4 TCQ shape).
// A 4-shard column shows pipelining compounding with scale-out.
func PipelineDepth(rc RunConfig) Table {
	t := Table{
		Title:  "Pipeline depth: single-connection async Put throughput (Kops/sec)",
		Header: []string{"depth", "Kops/sec", "speedup", "4-shard Kops/sec", "4-shard speedup"},
		Notes: []string{
			"1 thread, 128 B values, put-only: burst of <depth> PutAsync then drain",
			"speedup is vs depth 1 at the same shard count",
			"PWB sized to hold the sweep so reclamation does not serialize the depth axis",
		},
	}
	rc.Threads, rc.ValueSize = 1, 128
	rc.Replicas, rc.Placement, rc.SplitKeys = 0, "", nil // the sweep owns the router
	// The sweep isolates submission overlap: the PWB must hold the whole
	// run, or reclamation wraps serialize every depth equally and the
	// curve flattens (that pressure regime is Fig14's subject, not this).
	rc.PrismMut = func(o *core.Options) { o.PWBBytesPerThread = 8 << 20 }
	var base [2]float64
	for _, rc.Pipeline = range []int{1, 2, 4, 8, 16, 32} {
		row := []string{fmt.Sprintf("%d", rc.Pipeline)}
		for si, shards := range []int{1, 4} {
			rc.Shards = shards
			tag := fmt.Sprintf("pipelinedepth-%d-shards%d", rc.Pipeline, shards)
			k := cell(EnginePrism, rc, tag, nil)[ycsb.Load].KOpsPerSec()
			if rc.Pipeline == 1 {
				base[si] = k
			}
			row = append(row, f1(k), fmt.Sprintf("%.2fx", k/base[si]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Experiments maps CLI names to runners printing their tables.
var Experiments = map[string]func(rc RunConfig) []Table{
	"fig1":     func(rc RunConfig) []Table { return []Table{Fig1(rc)} },
	"fig7":     func(rc RunConfig) []Table { t, _ := Fig7(rc); return []Table{t} },
	"table3":   func(rc RunConfig) []Table { return []Table{Table3(rc)} },
	"fig8":     func(rc RunConfig) []Table { t, _ := Fig8(rc); return []Table{t} },
	"table4":   func(rc RunConfig) []Table { return []Table{Table4(rc)} },
	"fig9":     func(rc RunConfig) []Table { return []Table{Fig9(rc)} },
	"fig10a":   func(rc RunConfig) []Table { return []Table{Fig10a(rc)} },
	"fig10b":   func(rc RunConfig) []Table { return []Table{Fig10b(rc)} },
	"fig11":    func(rc RunConfig) []Table { return []Table{Fig11(rc)} },
	"fig12":    func(rc RunConfig) []Table { return []Table{Fig12(rc)} },
	"fig13":    func(rc RunConfig) []Table { return []Table{Fig13(rc)} },
	"fig14":    func(rc RunConfig) []Table { return []Table{Fig14(rc)} },
	"fig15a":   func(rc RunConfig) []Table { return []Table{Fig15a(rc)} },
	"fig15b":   func(rc RunConfig) []Table { return []Table{Fig15b(rc)} },
	"fig16":    func(rc RunConfig) []Table { return []Table{Fig16(rc)} },
	"fig17":    func(rc RunConfig) []Table { t, _, _, _ := Fig17(rc); return []Table{t} },
	"ablation": func(rc RunConfig) []Table { return []Table{Ablation(rc)} },
	"nvmspace": func(rc RunConfig) []Table { return []Table{NVMSpace(rc)} },
	"recovery": func(rc RunConfig) []Table { return []Table{Recovery(rc)} },

	// §8, and beyond the paper (EXPERIMENTS.md says what gates each).
	"discussion-media": func(rc RunConfig) []Table { return []Table{DiscussionMedia(rc)} },
	"shardscale":       func(rc RunConfig) []Table { return []Table{ShardScale(rc)} },
	"pipelinedepth":    func(rc RunConfig) []Table { return []Table{PipelineDepth(rc)} },
	"replication":      func(rc RunConfig) []Table { return []Table{Replication(rc)} },
	"tiering":          func(rc RunConfig) []Table { return []Table{Tiering(rc)} },
	"rangescan":        func(rc RunConfig) []Table { return []Table{RangeScan(rc)} },
	"wire":             func(rc RunConfig) []Table { return []Table{Wire(rc)} },
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
