package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/hsit"
	"repro/internal/ssd"
	"repro/internal/valuestore"
)

// tieredStore opens a store over a small fast device (ssd0, paper-default
// speed) and a large slow one (ssd1, QLC-class), with hot/cold steering
// on and the fixed 0.5 watermark so reclamation timing is predictable.
func tieredStore(t *testing.T, mutate func(*Options)) *Store {
	t.Helper()
	opt := Options{
		NumThreads:        1,
		PWBBytesPerThread: 32 << 10,
		HSITCapacity:      1 << 12,
		SSDConfigs: []ssd.Config{
			{Size: 1 << 20},
			{Size: 8 << 20, WriteLatency: 80_000, WriteBandwidth: 1_000_000_000},
		},
		ChunkSize:        16 << 10,
		SVCBytes:         16 << 10,
		EnableTiering:    true,
		ReclaimWatermark: 0.5,
	}
	if mutate != nil {
		mutate(&opt)
	}
	s, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// vsDevice returns the device index holding key's value, or -1 when the
// key is not Value-Storage-resident (still in the PWB ring, or absent).
func vsDevice(s *Store, k []byte) int {
	idx, ok := s.index.Lookup(nil, k)
	if !ok {
		return -1
	}
	p := s.table.Load(nil, idx)
	if p.Media != hsit.VS {
		return -1
	}
	dev, _ := valuestore.SplitOff(p.Off)
	return dev
}

func hotKey(i int) []byte  { return []byte(fmt.Sprintf("hot%08d", i)) }
func coldKey(i int) []byte { return []byte(fmt.Sprintf("cold%08d", i)) }

func val512(i int) []byte {
	return bytes.Repeat([]byte{byte('a' + i%26)}, 512)
}

// TestTieringHotColdPlacement is the placement property: under steering,
// repeatedly-written keys land on the fast device and write-once keys on
// the capacity device, and a crash/recover cycle preserves the placement
// of everything already in Value Storage.
func TestTieringHotColdPlacement(t *testing.T) {
	s := tieredStore(t, nil)
	if !s.tiered() {
		t.Fatal("tiering did not arm on a heterogeneous array")
	}
	if s.tierFast != 0 || s.tierCap != 1 {
		t.Fatalf("tiers = fast %d cap %d, want 0/1", s.tierFast, s.tierCap)
	}
	th := s.Thread(0)
	const nHot, nCold = 32, 512
	// Interleave one-shot cold writes with hot churn, so every reclaim
	// pass sees both classes. Each hot key is written 8 times (two-touch
	// hot); each cold key exactly once.
	for r := 0; r < 8; r++ {
		for i := r * nCold / 8; i < (r+1)*nCold/8; i++ {
			if err := th.Put(coldKey(i), val512(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < nHot; i++ {
			if err := th.Put(hotKey(i), val512(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Push the hot keys' final versions out of the ring with write-once
	// filler (few enough touches that the hot set stays in-window).
	for i := 0; i < 256; i++ {
		if err := th.Put(coldKey(nCold+i), val512(i)); err != nil {
			t.Fatal(err)
		}
	}

	count := func(n int, key func(int) []byte) (onFast, onCap, inVS int) {
		for i := 0; i < n; i++ {
			switch vsDevice(s, key(i)) {
			case s.tierFast:
				onFast, inVS = onFast+1, inVS+1
			case s.tierCap:
				onCap, inVS = onCap+1, inVS+1
			}
		}
		return
	}
	hotFast, _, hotVS := count(nHot, hotKey)
	_, coldCap, coldVS := count(nCold, coldKey)
	if hotVS < nHot/2 {
		t.Fatalf("only %d/%d hot keys reached Value Storage", hotVS, nHot)
	}
	if coldVS < nCold*3/4 {
		t.Fatalf("only %d/%d cold keys reached Value Storage", coldVS, nCold)
	}
	if hotFast*10 < hotVS*8 {
		t.Errorf("hot on fast tier: %d/%d, want >= 80%%", hotFast, hotVS)
	}
	if coldCap*10 < coldVS*8 {
		t.Errorf("cold on capacity tier: %d/%d, want >= 80%%", coldCap, coldVS)
	}

	// Crash and recover: whatever was VS-resident must stay on its device
	// (placement is durable state; only the volatile tracker resets).
	before := map[string]int{}
	for i := 0; i < nHot; i++ {
		if d := vsDevice(s, hotKey(i)); d >= 0 {
			before[string(hotKey(i))] = d
		}
	}
	for i := 0; i < nCold; i++ {
		if d := vsDevice(s, coldKey(i)); d >= 0 {
			before[string(coldKey(i))] = d
		}
	}
	s.Crash()
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	for k, want := range before {
		if got := vsDevice(s, []byte(k)); got != want {
			t.Fatalf("key %q moved from device %d to %d across recovery", k, want, got)
		}
	}
	th = s.Thread(0)
	for i := 0; i < nCold; i++ {
		got, err := th.Get(coldKey(i))
		if err != nil || !bytes.Equal(got, val512(i)) {
			t.Fatalf("cold key %d after recovery: %v", i, err)
		}
	}
}

// TestTieringDemotion drives the background demotion path by hand: keys
// made hot enough to land on the fast device, then aged out of the write
// planes, must migrate to the capacity tier once the fast tier passes
// half full.
func TestTieringDemotion(t *testing.T) {
	s := tieredStore(t, func(o *Options) {
		// A tiny fast device so the demotion threshold (half full) is
		// reachable with a small hot set.
		o.SSDConfigs[0].Size = 256 << 10
	})
	th := s.Thread(0)
	const nHot = 288
	for r := 0; r < 4; r++ {
		for i := 0; i < nHot; i++ {
			if err := th.Put(hotKey(i), val512(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Age the hot set: enough one-shot writes to take the written slots
	// past the limit (HSITCapacity/4 = 1024) and flush the ring.
	for i := 0; i < 1200; i++ {
		if err := th.Put(coldKey(i), val512(i)); err != nil {
			t.Fatal(err)
		}
	}
	// maintenanceLoop's own demoteStep may have been there already.
	fastSt := s.vsm.Stores[s.tierFast]
	if s.stats.tierDemotions.Load() == 0 && fastSt.FreeChunks()*2 > fastSt.Chunks() {
		t.Fatalf("fast tier only %d/%d chunks used; demotion threshold not reached",
			fastSt.Chunks()-fastSt.FreeChunks(), fastSt.Chunks())
	}
	p := s.newThread(0, nil, nil, nil)
	for cursor, step := 0, 0; s.stats.tierDemotions.Load() == 0; step++ {
		if step == 2*fastSt.Chunks() {
			t.Fatal("no demotions despite a cooled-off, more-than-half-full fast tier")
		}
		cursor = s.demoteStep(p, cursor)
	}
	for i := 0; i < nHot; i++ {
		got, err := th.Get(hotKey(i))
		if err != nil || !bytes.Equal(got, val512(i)) {
			t.Fatalf("hot key %d after demotion: %v", i, err)
		}
	}
}

// TestHotIdxReadsNoNVM: classifying a slot is two DRAM bit tests. The NVM
// device sees no access — no load of the slot's HSIT entry, and so no
// flush-on-read of an entry a put left dirty — whatever the verdict.
func TestHotIdxReadsNoNVM(t *testing.T) {
	s := tieredStore(t, func(o *Options) { o.ReclaimWatermark = 0.95 }) // no pass runs beside the test
	th := s.Thread(0)
	const n = 30
	for i := 0; i < n; i++ {
		for w := 0; w <= i%2; w++ { // odd keys twice
			if err := th.Put(hotKey(i), val512(i)); err != nil {
				t.Fatal(err)
			}
		}
		if i%3 == 0 {
			mustGet(t, th, hotKey(i))
		}
	}
	var idxs [n]uint64
	for i := range idxs {
		idxs[i] = mustIdxOf(t, s, hotKey(i))
	}
	before := s.nvmDev.Stats()
	for i, idx := range idxs {
		if got, want := s.hotIdx(idx), i%2 == 1 || i%3 == 0; got != want {
			t.Errorf("key %d (written %d times, read: %v) classified hot=%v", i, 1+i%2, i%3 == 0, got)
		}
	}
	if after := s.nvmDev.Stats(); after != before {
		t.Fatalf("classifying %d slots moved the NVM counters from %+v to %+v", n, before, after)
	}
}

// TestAdaptiveWatermarkBurstStress pits the adaptive controller against
// the fixed 0.5 default under bursty one-shot traffic. SyncVSWrites puts
// reclamation on the writing thread's virtual clock, which makes the
// comparison deterministic: a put that crosses the trigger absorbs the
// whole migration pass, so the put-stall tail IS the pass cost, and the
// pass cost scales with the trigger level on a transfer-dominated
// capacity device. The burst keeps passes back-to-back (pass duration
// dominates the inter-pass gap), which is exactly the regime where the
// controller shrinks the trigger — so adaptive passes converge to the
// floor and the stalled puts' p99 must beat the fixed default's. A
// second, asynchronous store then checks convergence: left idle, the
// maintenance probe must drain every ring below the trigger in force.
func TestAdaptiveWatermarkBurstStress(t *testing.T) {
	const rounds, burst = 12, 600
	run := func(watermark float64) (stallP99 int64, nStalls int, s *Store) {
		s = tieredStore(t, func(o *Options) {
			o.ReclaimWatermark = watermark
			o.SyncVSWrites = true
			o.PWBBytesPerThread = 32 << 10
			// One chunk = one ring: the watermark is the only drain
			// trigger (the sync per-chunk drain never fires).
			o.ChunkSize = 32 << 10
			o.HSITCapacity = 1 << 13 // every burst key stays live
			// Transfer-dominated capacity device, so a pass's cost is
			// proportional to its size — the quantity the trigger sets.
			o.SSDConfigs[1].WriteLatency = 1
			o.SSDConfigs[1].WriteBandwidth = 100_000_000
			// Room for every chunk the run seals, so GC never starts. At the
			// 0.10 floor an inline pass seals some 3 KiB of records into a
			// 32 KiB chunk, and the adaptive half's ~2,800 passes would want
			// ~90 MB of chunks on the 8 MiB device: GC, on its own goroutine
			// and clock, then ran through that whole half, and how much of
			// its device time landed inside a timed pass was up to the
			// host's scheduler — on a busy machine the adaptive p99 came out
			// above the fixed one about one run in five.
			o.SSDConfigs[1].Size = 256 << 20
		})
		th := s.Thread(0)
		var stallLat []int64
		for r := 0; r < rounds; r++ {
			for i := 0; i < burst; i++ {
				rec0 := s.stats.reclaims.Load()
				t0 := th.Clk.Now()
				if err := th.Put(coldKey(r*burst+i), val512(i)); err != nil {
					t.Fatal(err)
				}
				// A put that triggered a pass paid for it inline: its
				// latency is the stall the watermark controls.
				if s.stats.reclaims.Load() != rec0 {
					stallLat = append(stallLat, th.Clk.Now()-t0)
				}
			}
			th.Clk.Advance(5_000_000) // 5ms virtual idle between bursts
		}
		if n := s.Stats().VS.GCRuns; n != 0 {
			t.Errorf("GC ran %d times beside the timed passes: the devices are too small for this run", n)
		}
		if len(stallLat) == 0 {
			return 0, 0, s
		}
		sort.Slice(stallLat, func(a, b int) bool { return stallLat[a] < stallLat[b] })
		return stallLat[len(stallLat)*99/100], len(stallLat), s
	}

	fixedP99, fixedN, _ := run(0.5)
	adP99, adN, ad := run(0)

	if !ad.adaptiveWM {
		t.Fatal("ReclaimWatermark=0 did not arm the adaptive controller")
	}
	if fixedN == 0 {
		t.Fatal("no put ever paid a reclamation pass under the fixed watermark; stress is not stressing")
	}
	t.Logf("fixed: %d reclaim-paying puts, p99 %dns; adaptive: %d, p99 %dns (trigger settled at %.3f)",
		fixedN, fixedP99, adN, adP99, ad.effectiveWatermark())
	if adP99 >= fixedP99 {
		t.Errorf("adaptive put-stall p99 = %dns, fixed = %dns — controller is not shrinking passes", adP99, fixedP99)
	}
	if wm := ad.effectiveWatermark(); wm >= 0.5 {
		t.Errorf("adaptive trigger settled at %.3f under a burst; want below the 0.5 default", wm)
	}

	// Convergence, async this time: fill the ring past any plausible
	// trigger, stop traffic, and require the maintenance probe (idle
	// reclaim) to drain every ring below the trigger in force.
	async := tieredStore(t, func(o *Options) { o.ReclaimWatermark = 0 })
	th := async.Thread(0)
	for i := 0; i < 400; i++ {
		if err := th.Put(coldKey(i), val512(i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		converged := true
		for _, b := range async.pwbs {
			if b.Utilization() >= async.effectiveWatermark() {
				converged = false
			}
		}
		if converged {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, b := range async.pwbs {
		t.Errorf("ring %d stuck at %.2f utilization (trigger %.2f)", i, b.Utilization(), async.effectiveWatermark())
	}
}

func TestParseTierSpec(t *testing.T) {
	cfgs, err := ParseTierSpec(" 64M:5000 , 2G:1000:3000 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []ssd.Config{
		{Size: 64 << 20, WriteBandwidth: 5_000_000_000},
		{Size: 2 << 30, WriteBandwidth: 1_000_000_000, ReadBandwidth: 3_000_000_000},
	}
	if len(cfgs) != len(want) {
		t.Fatalf("got %d configs, want %d", len(cfgs), len(want))
	}
	for i := range want {
		if cfgs[i] != want[i] {
			t.Errorf("config %d = %+v, want %+v", i, cfgs[i], want[i])
		}
	}
	if cfgs, err := ParseTierSpec("  "); err != nil || cfgs != nil {
		t.Errorf("empty spec: %v, %v (want nil, nil)", cfgs, err)
	}
	for _, bad := range []string{"64X", "0M", "64M:-1", "64M:0", "64M:a:b", "64M:1:2:3", ":5000"} {
		if _, err := ParseTierSpec(bad); err == nil {
			t.Errorf("ParseTierSpec(%q) accepted a bad spec", bad)
		}
	}
}

// TestPickTiers pins the device-ranking rules, including the homogeneous
// tie-break that still yields two distinct tiers.
func TestPickTiers(t *testing.T) {
	mk := func(cfgs ...ssd.Config) []*ssd.Device {
		devs := make([]*ssd.Device, len(cfgs))
		for i, c := range cfgs {
			c.Name = fmt.Sprintf("ssd%d", i)
			if c.Size == 0 {
				c.Size = 1 << 20
			}
			devs[i] = ssd.New(c)
		}
		return devs
	}
	fast, cap := pickTiers(mk(
		ssd.Config{Size: 1 << 20},
		ssd.Config{Size: 8 << 20, WriteBandwidth: 1_000_000_000}))
	if fast != 0 || cap != 1 {
		t.Errorf("hetero: fast %d cap %d, want 0/1", fast, cap)
	}
	fast, cap = pickTiers(mk(ssd.Config{}, ssd.Config{}))
	if fast == cap {
		t.Errorf("homogeneous pair: fast %d == cap %d, want distinct", fast, cap)
	}
}
