package bench

import (
	"strconv"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/ycsb"
)

// TestRangeScanLocality is the range-placement acceptance gate (ISSUE
// 9): on a 4-shard store with quartile split keys, (1) a narrow scan
// reads exactly its owning shard — pinned both by the aggregate fan-out
// counter and by the per-shard {shard=N} core.ops{op=scan} metric — where
// a hash-placed scan asks all four for an index walk, and (2) either
// placement reads each row once: a hash-placed scan merges the four
// walks' keys and then reads every winner on the one shard that holds it,
// so what range placement saves a scan is the fan-out — three of four
// walks — and the second round trip, not rows. The work is gated, not the
// throughput: the 4-thread virtual-time makespan swings with goroutine
// interleaving (0.5x to 2x between runs); it is logged.
func TestRangeScanLocality(t *testing.T) {
	rc := RunConfig{Threads: 4, Records: 4000, Ops: 4000, ValueSize: 256}
	hash := runRangeScan(rc, "hash")
	rng := runRangeScan(rc, "range")

	for _, r := range []struct {
		name string
		RangeScanResult
	}{{"hash", hash}, {"range", rng}} {
		t.Logf("%-5s %.1f Kops/sec, per scan: %.2f shard scans, %.1f rows resolved, %.1f read paths, %.1f NVM loads, %.2f SSD read IOs, %.0f SSD bytes",
			r.name, r.KOps, r.ShardScansPer, r.rows(), r.PerScan("core.read_path"), r.PerScan("nvm.loads"), r.PerScan("ssd.read_ios"), r.PerScan("ssd.bytes_read"))
	}
	t.Logf("throughput ratio range/hash %.2fx (not gated)", rng.KOps/hash.KOps)

	if rng.ShardScansPer != 1.0 {
		t.Errorf("range placement fan-out = %.3f shard scans per scan, want exactly 1.0", rng.ShardScansPer)
	}
	if hash.ShardScansPer != float64(rangeScanShards) {
		t.Errorf("hash placement fan-out = %.3f shard scans per scan, want %d (one index walk on every shard)",
			hash.ShardScansPer, rangeScanShards)
	}
	// Each row once: a hash-placed scan, summed over the shards that read
	// its rows, resolves the rangeScanLen rows the owning shard of a
	// range-placed scan resolves, and the table says so.
	for _, r := range []struct {
		name string
		RangeScanResult
	}{{"hash", hash}, {"range", rng}} {
		if got, want := rangeScanRow(r.name, r.RangeScanResult, "-")[2], f1(rangeScanLen); got != want {
			t.Errorf("%s: the table's rows resolved per scan read %s, want %s", r.name, got, want)
		}
	}

	// Single-scan metric-level check: one narrow scan on a fresh range
	// store moves core.ops{op=scan} on exactly the owning shard.
	p := RunConfig{Threads: 1, Records: 1000, ValueSize: 256, Shards: rangeScanShards,
		Placement: "range", SplitKeys: QuartileSplitKeys(1000)}
	st, err := NewEngine(EnginePrism, p)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	Load(st, EnginePrism, RunConfig{Threads: 1, Records: 1000, ValueSize: 256})
	ps := st.(*engine.PrismStore)
	pre := ps.Metrics()
	// Keys 300..310 live in quartile 1 ([251, 501)), owned by shard 1.
	if err := st.Thread(0).Scan(ycsb.Key(300), 10, func(k, v []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	delta := ps.Metrics().Delta(pre)
	for j := 0; j < rangeScanShards; j++ {
		got := 0.0
		if m, ok := delta.Get("core.ops", map[string]string{"op": "scan", "shard": strconv.Itoa(j)}); ok {
			got = m.Value
		}
		want := 0.0
		if j == 1 {
			want = 1.0
		}
		if got != want {
			t.Errorf("core.ops{op=scan,shard=%d} moved by %.0f, want %.0f", j, got, want)
		}
	}
	if m, ok := delta.Get("shard.range_scans", nil); !ok || m.Value != 1 {
		t.Errorf("shard.range_scans delta = %v, want 1", m.Value)
	}
}

// TestRangeScanRowsCountRecords: the table's rows-resolved cell counts
// records (svc.hits + svc.misses), not core.read_path, which counts a
// merged Value Storage extent once. TestRangeScanLocality's scans read no
// flash once the load has filled the caches, so the two agree there; here
// 64 rows a scan arrive on 55 read paths, as scans over flash with merged
// extents do.
func TestRangeScanRowsCountRecords(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter(obs.Desc{Name: "svc.hits"}).Add(2000)
	r.Counter(obs.Desc{Name: "svc.misses"}).Add(4400)
	r.Counter(obs.Desc{Name: "core.read_path"}).Add(5500)
	res := RangeScanResult{Scans: 100, Delta: r.Snapshot()}
	if got := rangeScanRow("hash", res, "-")[2]; got != f1(rangeScanLen) {
		t.Errorf("rows resolved per scan read %s, want %s", got, f1(rangeScanLen))
	}
}
