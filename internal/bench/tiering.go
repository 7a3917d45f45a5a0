package bench

// The tiering experiment: hot/cold steering on a heterogeneous SSD
// array (ISSUE 8 / §2.1's device table). Both modes run on the *same*
// two-device array — a small fast drive and a large slow one — so the
// only variable is whether reclamation steers by popularity or stripes
// round-robin. The claim under test: on cold-heavy traffic (a small,
// repeatedly-updated hot set amid a stream of write-once inserts),
// steering keeps the cold bytes off the fast device — preserving its
// endurance and bandwidth for the hot set — without costing hot read
// latency.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ssd"
	"repro/internal/ycsb"
)

// tieringDevices builds the heterogeneous array both modes run on:
// ssd0 small with the paper-default (980 PRO-class) speed, ssd1 4x the
// capacity with QLC-class latency and bandwidth.
func tieringDevices(ds int64) []ssd.Config {
	return []ssd.Config{
		{Size: clamp64(ds*2, 4<<20, 1<<40)},
		{
			Size:           clamp64(ds*8, 16<<20, 1<<40),
			ReadLatency:    90_000,        // 90us
			WriteLatency:   80_000,        // 80us
			ReadBandwidth:  3_000_000_000, // 3 GB/s
			WriteBandwidth: 1_000_000_000, // 1 GB/s
		},
	}
}

// tieringMode names the two placements compared, by Options.EnableTiering.
var tieringMode = map[bool]string{false: "untiered", true: "tiered"}

// TieringResult is one mode's measurements, shared with the gate test.
type TieringResult struct {
	ChurnKOps   float64 // cold-heavy churn throughput (Kops per virtual sec)
	Read        Result  // hot-set YCSB-C (hot Get latency probe)
	FastBytes   float64 // device bytes written to the fast drive (all phases)
	FastWAF     float64 // fast-drive bytes written / user bytes first landed there
	ColdSteered float64 // cold reclaim bytes landed on the capacity tier
	ColdTotal   float64 // all cold reclaim bytes (steered + fallback)
}

// ColdOnCapacityPct is the share of cold-classified reclaim bytes that
// reached the capacity tier (0 when the mode never classified).
func (t TieringResult) ColdOnCapacityPct() float64 {
	if t.ColdTotal == 0 {
		return 0
	}
	return 100 * t.ColdSteered / t.ColdTotal
}

// tieringChurnRounds shapes the churn phase: per round, every hot key
// (records/8 of the loaded keyspace) is updated once and twice as many
// fresh cold keys are inserted. Over 8 rounds that is 1x the dataset in
// hot updates against 2x in one-shot inserts — with the load phase, 3 of
// every 4 user bytes are write-once cold.
const tieringChurnRounds = 8

// runTiering runs one mode — load, cold-heavy churn, hot-set reads — on
// the heterogeneous array and extracts the per-device counters.
func runTiering(rc RunConfig, tiered bool) TieringResult {
	totalKeys := rc.Records * 3 // load + 2x cold inserts
	rc.PrismMut = func(o *core.Options) {
		o.SSDConfigs = tieringDevices(rc.dataset())
		o.NumSSDs = 2
		o.EnableTiering = tiered
		// Room for the churn's inserts, and write planes that clear
		// after capacity/4 distinct written slots — every key the run
		// writes — so the hot set keeps its bits between updates.
		o.HSITCapacity = totalKeys * 4
	}
	st, _ := loaded(EnginePrism, rc)

	var out TieringResult
	out.ChurnKOps = tieringChurn(st, rc)
	// Hot Get latency: skewed reads over the hot subset only. Identical
	// in both modes; only where the values ended up differs.
	prc := rc
	prc.Records = rc.Records / 8
	prc.Zipfian = 1.1
	out.Read = Run(st, EnginePrism, ycsb.WorkloadC, prc).mustSucceed()
	rc.Metrics.Capture(st, EnginePrism, "tiering-"+tieringMode[tiered], nil)
	cur := st.(*engine.PrismStore).Metrics()
	fast := map[string]string{"device": "ssd0"}
	if m, ok := cur.Get("ssd.bytes_written", fast); ok {
		out.FastBytes = m.Value
	}
	if m, ok := cur.Get("ssd.waf", fast); ok {
		out.FastWAF = m.Value
	}
	if m, ok := cur.Get("tier.steered_bytes", map[string]string{"class": "cold"}); ok {
		out.ColdSteered = m.Value
		out.ColdTotal = m.Value
	}
	if m, ok := cur.Get("tier.fallback_bytes", map[string]string{"class": "cold"}); ok {
		out.ColdTotal += m.Value
	}
	st.Close()
	return out
}

// tieringChurn drives the cold-heavy mixed phase on thread 0: each round
// interleaves one update of every hot key (the first records/8 loaded
// keys) with twice as many fresh cold inserts, so every reclamation pass
// sees both classes. Returns throughput in Kops per virtual second.
func tieringChurn(st engine.Store, rc RunConfig) float64 {
	kv := st.Thread(0)
	clk := kv.Clock()
	start := clk.Now()
	val := make([]byte, rc.ValueSize)
	for i := range val {
		val[i] = byte(i)
	}
	nHot := rc.Records / 8
	coldPerRound := nHot * 2
	coldNext := uint64(rc.Records) // fresh ids above the loaded keyspace
	var ops int64
	for r := 0; r < tieringChurnRounds; r++ {
		for k := 0; k < coldPerRound; k++ {
			if err := kv.Put(ycsb.Key(coldNext), val); err != nil {
				panic(err)
			}
			coldNext++
			ops++
			if k%2 == 0 {
				hot := uint64(k/2) % uint64(nHot)
				if err := kv.Put(ycsb.Key(hot), val); err != nil {
					panic(err)
				}
				ops++
			}
		}
	}
	return kops(ops, clk.Now()-start)
}

// Tiering compares round-robin placement against hot/cold steering on
// the same fast+capacity device pair under cold-heavy skewed traffic.
func Tiering(rc RunConfig) Table {
	rc.applyDefaults()
	t := Table{
		Title: "Tiering: hot/cold steering on a fast+capacity SSD pair (cold-heavy churn)",
		Header: []string{"mode", "churn Kops", "C Kops", "C avg us", "C p99 us",
			"fast MB written", "fast WAF", "cold->capacity %"},
		Notes: []string{
			"ssd0: small, 980 PRO-class; ssd1: 4x size, QLC-class (90/80us, 3/1 GB/s)",
			"both modes run the identical array; only reclaim placement differs",
			"churn: 1x dataset of hot updates interleaved with 2x of one-shot inserts",
			"C: zipfian-1.1 reads over the hot subset after the churn",
			"cold->capacity % is the share of cold reclaim bytes steered to ssd1",
		},
	}
	for _, tiered := range []bool{false, true} {
		r := runTiering(rc, tiered)
		cold := "-"
		if r.ColdTotal > 0 {
			cold = f1(r.ColdOnCapacityPct())
		}
		t.Rows = append(t.Rows, []string{
			tieringMode[tiered],
			f1(r.ChurnKOps), f1(r.Read.KOpsPerSec()),
			f1(r.Read.Lat.AvgUS), f1(r.Read.Lat.P99US),
			f1(r.FastBytes / (1 << 20)),
			fmt.Sprintf("%.2f", r.FastWAF),
			cold,
		})
	}
	return t
}
