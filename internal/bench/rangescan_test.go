package bench

import (
	"strconv"
	"testing"

	"repro/internal/engine"
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
		t.Logf("%-5s %.1f Kops/sec, per scan: %.2f shard scans, %.1f rows resolved, %.1f NVM loads, %.2f SSD read IOs, %.0f SSD bytes",
			r.name, r.KOps, r.ShardScansPer, r.PerScan("core.read_path"), r.PerScan("nvm.loads"), r.PerScan("ssd.read_ios"), r.PerScan("ssd.bytes_read"))
	}
	t.Logf("throughput ratio range/hash %.2fx (not gated)", rng.KOps/hash.KOps)

	if rng.ShardScansPer != 1.0 {
		t.Errorf("range placement fan-out = %.3f shard scans per scan, want exactly 1.0", rng.ShardScansPer)
	}
	if hash.ShardScansPer != float64(rangeScanShards) {
		t.Errorf("hash placement fan-out = %.3f shard scans per scan, want %d (one index walk on every shard)",
			hash.ShardScansPer, rangeScanShards)
	}
	// Each row once: the rows a hash-placed scan resolves, summed over the
	// shards that read them, are the rows the owning shard of a range-placed
	// scan resolves (under 64 either way: core.read_path counts a merged
	// Value Storage extent once, however many rows it holds).
	if h, r := hash.PerScan("core.read_path"), rng.PerScan("core.read_path"); r <= 0 || h > 1.15*r {
		t.Errorf("rows resolved per scan: hash %.1f, range %.1f, want hash within 1.15x of range", h, r)
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
