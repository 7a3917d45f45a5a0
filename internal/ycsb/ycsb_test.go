package ycsb

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/sim"
)

func TestKeyOrderMatchesNumericOrder(t *testing.T) {
	prev := Key(0)
	for _, i := range []uint64{1, 9, 10, 99, 12345, 999999999} {
		k := Key(i)
		if bytes.Compare(prev, k) >= 0 {
			t.Fatalf("Key(%d) not greater than previous", i)
		}
		prev = k
	}
}

func TestMixesSumTo100(t *testing.T) {
	for _, w := range []Workload{Load, WorkloadA, WorkloadB, WorkloadC, WorkloadD, WorkloadE, Nutanix} {
		m := MixOf(w)
		if s := m.InsertPct + m.ReadPct + m.UpdatePct + m.ScanPct; s != 100 {
			t.Errorf("workload %c mix sums to %d", w, s)
		}
	}
}

func TestOpMixFrequencies(t *testing.T) {
	cfg := Config{Workload: WorkloadA, Records: 1000}
	g := NewGenerator(cfg, NewShared(cfg), 1)
	counts := map[OpKind]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[g.Next().Kind]++
	}
	if r := float64(counts[OpRead]) / n; math.Abs(r-0.5) > 0.03 {
		t.Fatalf("read fraction %v, want ~0.5", r)
	}
	if u := float64(counts[OpUpdate]) / n; math.Abs(u-0.5) > 0.03 {
		t.Fatalf("update fraction %v, want ~0.5", u)
	}
	if counts[OpInsert]+counts[OpScan] != 0 {
		t.Fatalf("workload A produced inserts/scans: %v", counts)
	}
}

func TestLoadIsAllInsertsWithUniqueKeys(t *testing.T) {
	cfg := Config{Workload: Load, Records: 0, InsertStart: 1}
	sh := NewShared(cfg)
	g1 := NewGenerator(cfg, sh, 1)
	g2 := NewGenerator(cfg, sh, 2)
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		for _, g := range []*Generator{g1, g2} {
			op := g.Next()
			if op.Kind != OpInsert {
				t.Fatalf("LOAD produced %v", op.Kind)
			}
			if seen[string(op.Key)] {
				t.Fatalf("duplicate insert key %s", op.Key)
			}
			seen[string(op.Key)] = true
		}
	}
}

func TestScanWorkloadProducesScans(t *testing.T) {
	cfg := Config{Workload: WorkloadE, Records: 1000}
	g := NewGenerator(cfg, NewShared(cfg), 3)
	scans, totalLen := 0, 0
	for i := 0; i < 10000; i++ {
		op := g.Next()
		if op.Kind == OpScan {
			scans++
			totalLen += op.ScanLen
			if op.ScanLen < 1 || op.ScanLen > 100 {
				t.Fatalf("scan length %d out of range", op.ScanLen)
			}
		}
	}
	if frac := float64(scans) / 10000; math.Abs(frac-0.95) > 0.02 {
		t.Fatalf("scan fraction %v", frac)
	}
	if avg := float64(totalLen) / float64(scans); math.Abs(avg-50.5) > 3 {
		t.Fatalf("average scan length %v, want ~50", avg)
	}
}

func TestZipfianSkew(t *testing.T) {
	z := NewZipfian(10000, 0.99)
	rng := sim.NewRNG(7)
	counts := make([]int, 10000)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Next(rng)]++
	}
	// Rank 0 should dominate; the hottest 1% of ranks should carry a
	// large share of requests.
	if counts[0] < counts[100] {
		t.Fatal("rank 0 not hotter than rank 100")
	}
	var top1 int
	for i := 0; i < 100; i++ {
		top1 += counts[i]
	}
	if frac := float64(top1) / n; frac < 0.3 {
		t.Fatalf("top-1%% ranks got only %.2f of requests", frac)
	}
	// All draws in range.
	for r, c := range counts {
		if c < 0 {
			t.Fatalf("negative count at %d", r)
		}
	}
}

func TestZipfianThetaMonotonicity(t *testing.T) {
	share := func(theta float64) float64 {
		z := NewZipfian(1000, theta)
		rng := sim.NewRNG(11)
		hot := 0
		const n = 50000
		for i := 0; i < n; i++ {
			if z.Next(rng) < 10 {
				hot++
			}
		}
		return float64(hot) / n
	}
	s5, s99, s12 := share(0.5), share(0.99), share(1.2)
	if !(s5 < s99 && s99 < s12) {
		t.Fatalf("hot share not increasing with theta: %v %v %v", s5, s99, s12)
	}
}

func TestUniformWhenZipfianDisabled(t *testing.T) {
	cfg := Config{Workload: WorkloadC, Records: 100, Zipfian: -1}
	cfg.applyDefaults()
	if cfg.Zipfian != -1 {
		t.Skip("negative sentinel overridden")
	}
}

func TestLatestDistributionSkewsRecent(t *testing.T) {
	cfg := Config{Workload: WorkloadD, Records: 10000}
	g := NewGenerator(cfg, NewShared(cfg), 5)
	recent := 0
	const n = 20000
	for i := 0; i < n; i++ {
		op := g.Next()
		if op.Kind != OpRead {
			continue
		}
		var id uint64
		if _, err := parseKey(op.Key, &id); err != nil {
			t.Fatal(err)
		}
		if id >= 9000 {
			recent++
		}
	}
	if frac := float64(recent) / n; frac < 0.5 {
		t.Fatalf("latest distribution read recent 10%% only %.2f of the time", frac)
	}
}

func parseKey(k []byte, id *uint64) (int, error) {
	var n uint64
	for _, c := range k[4:] {
		n = n*10 + uint64(c-'0')
	}
	*id = n
	return 0, nil
}

func TestValueDeterministicSizeAndVariety(t *testing.T) {
	cfg := Config{Workload: WorkloadA, Records: 10, ValueSize: 256}
	g := NewGenerator(cfg, NewShared(cfg), 9)
	v1 := append([]byte(nil), g.Value(1)...)
	v2 := append([]byte(nil), g.Value(2)...)
	if len(v1) != 256 || len(v2) != 256 {
		t.Fatalf("value sizes %d/%d", len(v1), len(v2))
	}
	if bytes.Equal(v1, v2) {
		t.Fatal("distinct ids produced identical values")
	}
}

func TestInsertsExtendKeyspaceForLatest(t *testing.T) {
	cfg := Config{Workload: WorkloadD, Records: 100}
	sh := NewShared(cfg)
	if sh.Count() != 100 {
		t.Fatalf("initial count %d", sh.Count())
	}
	g := NewGenerator(Config{Workload: Load, Records: 100, InsertStart: 100}, sh, 1)
	op := g.Next()
	if op.Kind != OpInsert || string(op.Key) != string(Key(100)) {
		t.Fatalf("insert op = %v %s", op.Kind, op.Key)
	}
	if sh.Count() != 101 {
		t.Fatalf("count after insert %d", sh.Count())
	}
}
