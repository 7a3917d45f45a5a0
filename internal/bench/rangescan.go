package bench

// The rangescan experiment: scan locality under range placement (ISSUE
// 9). Hash placement spreads every key range across all shards, so a
// narrow scan asks every shard for an index walk, merges the keys and
// reads each row on the shard that holds it: N walks and two rounds per
// scan, each row read once. Range placement routes the same scan to the
// one shard owning the interval — one walk, one round — so concurrent
// scans from different threads partition cleanly across the shards'
// independent device sets instead of visiting all of them.

import (
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/ycsb"
)

// rangeScanShards fixes the experiment's shard count: 4 quartiles, one
// scanning thread pinned per quartile. Every scan reads rangeScanLen keys.
const (
	rangeScanShards = 4
	rangeScanLen    = 64
)

// QuartileSplitKeys returns the rangeScanShards-1 boundary keys that cut
// the loaded YCSB keyspace (ids 1..records) into equal quartiles.
func QuartileSplitKeys(records int) [][]byte {
	var splits [][]byte
	for q := 1; q < rangeScanShards; q++ {
		splits = append(splits, ycsb.Key(uint64(1+q*records/rangeScanShards)))
	}
	return splits
}

// RangeScanResult is one placement mode's measurement, shared with the
// locality gate test.
type RangeScanResult struct {
	KOps          float64      // quartile-local scans per virtual second (thousands)
	Scans         int64        // router scans in the phase
	ShardScansPer float64      // core scan ops issued per router scan (fan-out)
	Delta         obs.Snapshot // metric movement across the scan phase
}

// PerScan returns the movement of the named metric, summed over shards,
// devices and the label values labels does not fix, per router scan.
func (r RangeScanResult) PerScan(name string, labels ...string) float64 {
	return r.Delta.Sum(name, labels...) / float64(r.Scans)
}

// rows is the records a scan resolved, per router scan: SVC hits, PWB
// reads and every record read from Value Storage (svc.hits + svc.misses).
// core.read_path is not it: it counts a merged Value Storage extent once,
// however many rows the extent holds.
func (r RangeScanResult) rows() float64 {
	return r.PerScan("svc.hits") + r.PerScan("svc.misses")
}

// runRangeScan loads a 4-shard Prism under the given placement mode and
// drives the concurrent quartile-local scan phase: each thread scans
// random intervals inside its own quartile only, so under range
// placement every scan has exactly one owning shard.
func runRangeScan(rc RunConfig, placement string) RangeScanResult {
	rc.applyDefaults()
	rc.Shards, rc.Replicas, rc.Placement, rc.SplitKeys = rangeScanShards, 0, placement, nil
	if placement == "range" {
		rc.SplitKeys = QuartileSplitKeys(rc.Records)
	}
	st, _ := loaded(EnginePrism, rc)
	ps := st.(*engine.PrismStore)

	pre := ps.Metrics()

	nt := rc.Threads
	scansPerThread := rc.Ops / 8 / nt
	if scansPerThread == 0 {
		scansPerThread = 1
	}
	var wg sync.WaitGroup
	virt := make([]int64, nt)
	for ti := 0; ti < nt; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			kv := st.Thread(ti)
			clk := kv.Clock()
			start := clk.Now()
			// Quartile-local starts, with room for the scan to finish
			// inside the quartile: [qlo, qhi-scanLen).
			q := ti % rangeScanShards
			qlo := 1 + q*rc.Records/rangeScanShards
			span := rc.Records/rangeScanShards - rangeScanLen
			if span < 1 {
				span = 1
			}
			seed := rc.Seed + uint64(ti)*7919
			for i := 0; i < scansPerThread; i++ {
				// xorshift stream per thread: deterministic, quartile-local.
				seed ^= seed << 13
				seed ^= seed >> 7
				seed ^= seed << 17
				id := qlo + int(seed%uint64(span))
				if err := kv.Scan(ycsb.Key(uint64(id)), rangeScanLen, func(k, v []byte) bool { return true }); err != nil {
					panic(fmt.Sprintf("bench: rangescan %s: %v", placement, err))
				}
			}
			virt[ti] = clk.Now() - start
		}(ti)
	}
	wg.Wait()

	var out RangeScanResult
	var makespan int64
	for _, v := range virt {
		if v > makespan {
			makespan = v
		}
	}
	out.Scans = int64(nt) * int64(scansPerThread)
	out.KOps = kops(out.Scans, makespan)
	out.Delta = ps.Metrics().Delta(pre)
	out.ShardScansPer = out.PerScan("core.ops", "op", "scan")
	rc.Metrics.Capture(st, EnginePrism, "rangescan-"+placement, nil)
	st.Close()
	return out
}

// RangeScan compares hash and range placement on the concurrent
// quartile-local scan phase — the locality claim behind the placement
// mode, measured in virtual time on identical 4-shard stores.
func RangeScan(rc RunConfig) Table {
	rc.applyDefaults()
	t := Table{
		Title:  "Range placement: quartile-local scans, 4 shards (work per scan, Kops/sec)",
		Header: []string{"placement", "shard scans per scan", "rows resolved", "NVM loads", "SSD read IOs", "SSD bytes", "scan Kops/sec", "speedup"},
		Notes: []string{
			"each thread scans 64-key intervals confined to its own keyspace quartile",
			"hash: every scan merges the key-index walks of all 4 shards, then reads each row on the one shard that holds it",
			"range: the boundary table routes each scan to the one shard owning its quartile",
			"shard scans per scan = core scan ops (index walks) issued / router scans (fan-out; 1.0 = perfect locality)",
			"rows resolved, NVM loads, SSD read IOs and SSD bytes are per router scan, summed over shards",
			"Kops/sec is the 4-thread virtual-time makespan: it depends on goroutine interleaving and is not gated",
		},
	}
	hash := runRangeScan(rc, "hash")
	rng := runRangeScan(rc, "range")
	speedup := "-"
	if hash.KOps > 0 {
		speedup = fmt.Sprintf("%.2fx", rng.KOps/hash.KOps)
	}
	t.Rows = append(t.Rows, rangeScanRow("hash", hash, "1.00x"), rangeScanRow("range", rng, speedup))
	return t
}

// rangeScanRow is one placement's row of the RangeScan table.
func rangeScanRow(name string, r RangeScanResult, speedup string) []string {
	return []string{name, f2(r.ShardScansPer), f1(r.rows()), f1(r.PerScan("nvm.loads")),
		f2(r.PerScan("ssd.read_ios")), f1(r.PerScan("ssd.bytes_read")), f1(r.KOps), speedup}
}
