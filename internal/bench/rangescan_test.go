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
// counter and by the per-shard {shard=N} core.ops{op=scan} metric — and
// (2) a scan does a fraction of the device work of hash placement's
// k-way merge. The work is gated, not the throughput: a scan's Value
// Storage reads overlap (DESIGN.md §4), so fan-out costs little
// latency, and the 4-thread virtual-time makespan swings with goroutine
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
		t.Errorf("hash placement fan-out = %.3f shard scans per scan, want %d (k-way merge)",
			hash.ShardScansPer, rangeScanShards)
	}
	// Every shard of a hash-placed scan resolves up to 64 rows of its own
	// and walks its own index for them; the owning shard of a range-placed
	// scan does it once. At this scale the rows sit in the SVC and the
	// PWB — about half an SSD read per scan under either placement, too
	// few to compare, so those are logged above — and the work saved is
	// NVM and DRAM work.
	for _, name := range []string{"core.read_path", "nvm.loads"} {
		if h, r := hash.PerScan(name), rng.PerScan(name); r <= 0 || h < 3*r {
			t.Errorf("%s per scan: hash %.1f, range %.1f, want range at most a third of hash", name, h, r)
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
