package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hsit"
	"repro/internal/sim"
	"repro/internal/svc"
	"repro/internal/valuestore"
)

// runClaimers is the worst neighbour a relocation can have: one GC pass
// over every Value Storage with every sparse chunk a victim, then a
// demotion sweep of every chunk of every store into the next store
// (sparing the entries in pinned), each with the production conditional
// publish. Run from inside a settle callback it finds the caller's chunk
// written and marked valid while HSIT does not point at its records yet.
func runClaimers(s *Store, pinned map[uint64]bool) {
	clk := sim.NewClock(0)
	swing := func(from, to int) func(idx, oldOff, newOff uint64, vlen int) bool {
		return func(idx, oldOff, newOff uint64, vlen int) bool {
			_, ok := s.table.PublishIf(clk, idx,
				hsit.Pointer{Media: hsit.VS, Len: vlen, Off: valuestore.GlobalOff(from, oldOff)},
				hsit.Pointer{Media: hsit.VS, Len: vlen, Off: valuestore.GlobalOff(to, newOff)})
			return ok
		}
	}
	for di, st := range s.vsm.Stores {
		st.GC(clk, st.Chunks(), swing(di, di))
	}
	for di, st := range s.vsm.Stores {
		to := (di + 1) % len(s.vsm.Stores)
		for cursor := 0; ; {
			next, _, _ := st.DemoteChunk(clk, cursor, s.vsm.Stores[to], 0, func(idx uint64) bool { return !pinned[idx] }, swing(di, to))
			if next <= cursor {
				break // nothing claimable, or the sweep wrapped
			}
			cursor = next
		}
	}
}

// TestClaimersInsideSettle runs GC and DemoteChunk from inside the settle
// callback of every caller of the relocation path, GC's own included. A
// chunk is claimable only once its writer has settled every record, so
// the claimers must leave the chunk being settled alone, and afterwards
// every key is well-coupled and readable. (With a chunk sealed at its
// device write, GC takes the short fresh chunk as its best victim, finds
// its unpublished records refused, frees it, and the caller then points
// HSIT into a free chunk: "VS record has a clear validity bit".)
func TestClaimersInsideSettle(t *testing.T) {
	type row struct {
		s      *Store
		th     *Thread
		p      *Thread // the test's pass thread
		want   map[string][]byte
		next   int
		pinned map[uint64]bool // HSIT entries the claimers' demotion spares
	}
	var armed atomic.Pointer[row]
	var calls atomic.Int64
	settleHook = func(*Thread) {
		if r := armed.Load(); r != nil {
			calls.Add(1)
			runClaimers(r.s, r.pinned)
		}
	}
	t.Cleanup(func() { settleHook = nil }) // after every row's store has closed

	// put writes n fresh keys (or rewrites keys [from, from+n) when from
	// >= 0) and leaves them in the ring.
	put := func(t *testing.T, r *row, from, n int, val func(int) []byte) {
		t.Helper()
		for i := 0; i < n; i++ {
			k := from + i
			if from < 0 {
				k = r.next
				r.next++
			}
			if err := r.th.Put(key(k), val(k)); err != nil {
				t.Fatal(err)
			}
			r.want[string(key(k))] = val(k)
		}
	}
	// seed leaves every store a one-shot key can land on (under tiering:
	// the capacity tier) with two or more sparse sealed chunks, so a GC
	// pass there always nets a chunk and has the fresh one to covet.
	seed := func(t *testing.T, r *row, val func(int) []byte) {
		t.Helper()
		for round := 0; ; round++ {
			sparse := true
			for di, st := range r.s.vsm.Stores {
				sparse = sparse && (st.Stats().LiveChunks >= 2 || r.s.tiered() && di != r.s.tierCap)
			}
			if sparse {
				return
			}
			if round == 64 {
				t.Fatal("seeding never left two live chunks on every store")
			}
			put(t, r, -1, 6, val)
			pass(r.p)
		}
	}
	val512 := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 512) }

	callers := []struct {
		name   string
		tiered bool
		run    func(t *testing.T, r *row)
	}{
		{"reclaim", false, func(t *testing.T, r *row) {
			seed(t, r, value)
			put(t, r, -1, 6, value)
			put(t, r, 0, 3, func(i int) []byte { return value(i + 1000) }) // supersede seeded records too
			armed.Store(r)
			pass(r.p)
		}},
		{"recovery drain", false, func(t *testing.T, r *row) {
			seed(t, r, value)
			put(t, r, -1, 6, value)
			r.s.Crash()
			armed.Store(r)
			rep, err := r.s.Recover()
			if err != nil || rep.PWBValuesDrained != 6 || rep.LostKeys != 0 {
				t.Fatalf("recovery: %+v, %v", rep, err)
			}
		}},
		{"scan rewrite", false, func(t *testing.T, r *row) {
			// The chain: four keys of one dense chunk (GC passes over it),
			// more than mergeGap apart, pinned against the claimers'
			// demotion — so the rewrite's own publishes win.
			put(t, r, -1, 240, value) // 64-byte records: 15 of the chunk's 16 KiB
			pass(r.p)
			seed(t, r, value)
			var chain svc.EvictedChain
			for k := 0; k < 240; k += 70 {
				idx := mustIdx(t, r.s, k)
				r.pinned[idx] = true
				chain.Entries = append(chain.Entries, &svc.Entry{
					HSITIdx: idx, Value: value(k), Ver: r.s.table.Version(idx),
				})
			}
			r.p.Clk.AdvanceTo(10_000_000) // past the rewrite pacing interval
			armed.Store(r)
			r.s.onScanEvict(r.p, chain)
			for _, e := range chain.Entries {
				if r.s.table.Version(e.HSITIdx) == e.Ver {
					t.Fatalf("the key at HSIT entry %d was not rewritten", e.HSITIdx)
				}
			}
		}},
		{"demotion", true, func(t *testing.T, r *row) {
			seed(t, r, val512) // one-shot keys: cold, capacity tier
			// 40 keys written twice are hot and fill two of the fast tier's
			// four chunks: half full, the demotion threshold.
			hot0 := r.next
			put(t, r, -1, 40, val512)
			pass(r.p)
			put(t, r, hot0, 40, val512)
			pass(r.p)
			if dev := vsDevice(r.s, key(hot0)); dev != r.s.tierFast {
				t.Fatalf("hot key on device %d, fast tier is %d", dev, r.s.tierFast)
			}
			// Cool every other one: age the write planes out, as a limit's
			// worth of one-shot inserts does, then write half of them twice
			// again. From the first cooled key on, maintenanceLoop's own
			// demoteStep may get there first: arm now.
			armed.Store(r)
			r.s.pop.written.clear()
			r.s.pop.again.clear()
			for k := hot0; k < hot0+40; k += 2 {
				r.s.pop.wrote(mustIdx(t, r.s, k))
				r.s.pop.wrote(mustIdx(t, r.s, k))
			}
			deadline := time.Now().Add(5 * time.Second)
			for cursor := 0; r.s.stats.tierDemotions.Load() == 0; {
				if time.Now().After(deadline) {
					t.Fatal("nothing demoted from a half-full fast tier of cooled keys")
				}
				cursor = r.s.demoteStep(r.p, cursor) // beside maintenanceLoop's own
			}
		}},
		{"gc", false, func(t *testing.T, r *row) {
			// A GC pass's victims and its output chunk are its own until it
			// seals them; every store holds two sparse chunks to collect.
			seed(t, r, value)
			armed.Store(r)
			for di := range r.s.vsm.Stores {
				r.s.collect(r.p, di)
			}
		}},
	}
	for _, c := range callers {
		t.Run(c.name, func(t *testing.T) {
			var s *Store
			if c.tiered {
				s = tieredStore(t, func(o *Options) {
					o.SSDConfigs[0].Size = 64 << 10 // four chunks
					o.ReclaimWatermark = 0.95
					o.DisableSVC = true
				})
			} else {
				s = quietReclaim(t)
			}
			r := &row{s: s, th: s.Thread(0), p: s.newThread(0, sim.NewRNG(1), nil, nil), want: map[string][]byte{}, pinned: map[uint64]bool{}}
			calls.Store(0)
			c.run(t, r)
			armed.Store(nil)
			if calls.Load() == 0 {
				t.Fatal("no settle callback ran")
			}
			if rep := s.CheckInvariants(); !rep.OK() {
				t.Fatalf("invariants after %d settles with claimers inside: %v", calls.Load(), rep.Problems)
			}
			for k, want := range r.want {
				if got, err := r.th.Get([]byte(k)); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("key %s = %.16q, %v; want %.16q", k, got, err, want)
				}
			}
		})
	}
}

// TestRelocationChargesSwingsAfterWrite: each of the five callers of the
// relocation path charges a record's pointer swing on its pass's clock
// after the chunk write the new pointer points into, so a pass of N swings
// ends at least N swing costs after that write. The write's completion is
// read off the devices, not off the clock under test: every pass starts at
// the devices' horizon, so when its records settle the newest SSD bucket
// is the one the chunk's transfer ended in, and the device's write latency
// follows it.
func TestRelocationChargesSwingsAfterWrite(t *testing.T) {
	// settled is one record's settle: the pass's clock, where its swing is
	// charged from, and the earliest its chunk's write can have completed.
	type settled struct{ at, written int64 }
	type probe struct {
		mu      sync.Mutex
		s       *Store
		pass    *Thread // the pass watched: the first to settle
		settles []settled
	}
	var armed atomic.Pointer[probe]
	settleHook = func(p *Thread) { // on p's goroutine: its clock is safe to read
		pr := armed.Load()
		if pr == nil {
			return
		}
		pr.mu.Lock()
		defer pr.mu.Unlock()
		if pr.pass == nil {
			pr.pass = p
		}
		if p != pr.pass {
			return
		}
		var written int64
		for _, d := range pr.s.ssds {
			written = max(written, d.Now()+d.Config().WriteLatency)
		}
		pr.settles = append(pr.settles, settled{p.Clk.Now(), written})
	}
	t.Cleanup(func() { settleHook = nil }) // after every row's store has closed

	horizon := func(s *Store) int64 {
		h := s.nvmDev.Now()
		for _, d := range s.ssds {
			h = max(h, d.Now())
		}
		return h
	}
	flat := func(t *testing.T) *Store { // room in the ring for every key: no pass runs unasked
		return small(t, func(o *Options) {
			o.NumThreads = 1
			o.PWBBytesPerThread = 1 << 20
			o.ReclaimWatermark = 0.95
			o.DisableSVC = true
		})
	}
	put := func(t *testing.T, s *Store, k, v []byte) {
		t.Helper()
		if err := s.Thread(0).Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	rows := []struct {
		name string
		open func(t *testing.T) *Store
		// setup leaves the store ready for the pass; run runs it on p (the
		// recovery drain runs on a thread of Recover's own).
		setup, run func(t *testing.T, s *Store, p *Thread)
	}{
		{"reclaim", flat, func(t *testing.T, s *Store, p *Thread) {
			for i := 0; i < 200; i++ {
				put(t, s, key(i), value(i))
			}
		}, func(t *testing.T, s *Store, p *Thread) { pass(p) }},
		{"recovery drain", flat, func(t *testing.T, s *Store, p *Thread) {
			for i := 0; i < 200; i++ {
				put(t, s, key(i), value(i))
			}
			s.Crash()
		}, func(t *testing.T, s *Store, p *Thread) {
			if rep, err := s.Recover(); err != nil || rep.PWBValuesDrained != 200 {
				t.Fatalf("recovery: %+v, %v", rep, err)
			}
		}},
		{"scan rewrite", flat, func(t *testing.T, s *Store, p *Thread) {
			for i := 0; i < 240; i++ {
				put(t, s, key(i), value(i))
			}
			pass(p)
			p.Clk.AdvanceTo(10_000_000) // past the rewrite pacing interval
		}, func(t *testing.T, s *Store, p *Thread) {
			var chain svc.EvictedChain
			for k := 0; k < 240; k += 70 { // more than mergeGap apart
				idx := mustIdx(t, s, k)
				chain.Entries = append(chain.Entries, &svc.Entry{HSITIdx: idx, Value: value(k), Ver: s.table.Version(idx)})
			}
			s.onScanEvict(p, chain)
		}},
		{"gc", flat, func(t *testing.T, s *Store, p *Thread) {
			// 3,000 keys, then 3 of every 4 overwritten: the first chunks
			// are a quarter live.
			for i := 0; i < 3000; i++ {
				put(t, s, key(i), value(i))
			}
			pass(p)
			for i := 0; i < 3000; i++ {
				if i%4 != 0 {
					put(t, s, key(i), value(i+10_000))
				}
			}
			pass(p)
		}, func(t *testing.T, s *Store, p *Thread) {
			for di := range s.vsm.Stores {
				s.collect(p, di)
			}
		}},
		{"demotion", func(t *testing.T) *Store {
			return tieredStore(t, func(o *Options) {
				o.SSDConfigs[0].Size = 64 << 10 // four chunks
				o.PWBBytesPerThread = 1 << 20
				o.ReclaimWatermark = 0.95
				o.DisableSVC = true
			})
		}, func(t *testing.T, s *Store, p *Thread) {
			// 40 keys written twice fill half the fast tier. The
			// maintenance loop stops before they cool, so the step below
			// is the only one to move them.
			for round := 0; round < 2; round++ {
				for i := 0; i < 40; i++ {
					put(t, s, hotKey(i), val512(i))
				}
				pass(p)
			}
			s.Close()
			s.pop.written.clear()
			s.pop.again.clear()
		}, func(t *testing.T, s *Store, p *Thread) {
			s.demoteStep(p, 0)
			if s.stats.tierDemotions.Load() == 0 {
				t.Fatal("nothing demoted from a half-full fast tier of cooled keys")
			}
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			s := r.open(t)
			p := s.newThread(0, sim.NewRNG(1), nil, nil)
			r.setup(t, s, p)
			p.Clk.AdvanceTo(horizon(s))
			pr := &probe{s: s}
			armed.Store(pr)
			r.run(t, s, p)
			armed.Store(nil)
			if len(pr.settles) == 0 {
				t.Fatal("no record settled")
			}
			c := costsOf(s, 0)
			// A swing is PublishIf: load the word, then install. need is the
			// earliest the pass can end.
			swing, need := c.read(8)+c.publish(), int64(0)
			for i, st := range pr.settles {
				if st.at < st.written {
					t.Errorf("%s: swing %d of %d charged at %d, %d ns before the chunk write it points into completed",
						r.name, i, len(pr.settles), st.at, st.written-st.at)
					break
				}
				need = max(need, st.written) + swing
			}
			first, end := pr.settles[0].written, pr.pass.Clk.Now()
			if end < need {
				t.Errorf("%s: %d swings end at +%d ns after the write they point into completed; at least +%d is required",
					r.name, len(pr.settles), end-first, need-first)
			}
			t.Logf("%d swings of %d ns: the first charged at +%d ns after its write, the pass ends at +%d (at least +%d)",
				len(pr.settles), swing, pr.settles[0].at-first, end-first, need-first)
		})
	}
}

// TestUndrivenPassesStartAtThePresent: a pass no request hands a time to —
// the migration purge on the maintenance thread, a demotion step, the
// scan-range rewrite, a reclaim pass the maintenance tick kicks — starts
// at the NVM channel's present. After a virtual second of foreground work
// that kicks no reclaimer and admits nothing, each must end (the tick's
// pass: swing its pointers) no earlier than where the channel stood just
// before it: a pass started at a time nothing drives is served in the
// channel's past, up to its 67 ms horizon behind, and ends there.
func TestUndrivenPassesStartAtThePresent(t *testing.T) {
	var ticked atomic.Bool
	var earliest atomic.Int64 // the earliest reclaim swing since ticked, on its pass's clock
	earliest.Store(math.MaxInt64)
	settleHook = func(p *Thread) { // on p's goroutine: its clock is safe to read
		// Once ticked, the ring's reclaimer is the only pass thread with an
		// RNG that runs (the test's own are done, the SVC is off); GC's and
		// the maintenance loop's demotion have none, and a pass of theirs
		// that started before the tick may still be swinging.
		if !ticked.Load() || p.rng == nil {
			return
		}
		at := p.Clk.Now()
		for old := earliest.Load(); at < old && !earliest.CompareAndSwap(old, at); old = earliest.Load() {
		}
	}
	t.Cleanup(func() { settleHook = nil }) // after the store has closed
	s := tieredStore(t, func(o *Options) {
		o.SSDConfigs[0].Size = 64 << 10 // four chunks: the hot keys fill half
		o.PWBBytesPerThread = 1 << 20
		o.ReclaimWatermark = 0.95
		o.DisableSVC = true
	})
	th := s.Thread(0)
	put := func(k, v []byte) {
		if err := th.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	p := s.newThread(0, sim.NewRNG(1), nil, nil)
	for round := 0; round < 2; round++ { // written twice: hot, on the fast tier
		for i := 0; i < 40; i++ {
			put(hotKey(i), val512(i))
		}
		pass(p)
	}
	for i := 0; i < 240; i++ { // written once: cold, on the capacity tier
		put(coldKey(i), value(i))
	}
	pass(p)
	for i := 0; i < 100; i++ { // the purge's range, in the ring
		put(key(i), value(i))
	}
	for i := 0; i < 400; i++ {
		th.Clk.Advance(2_500_000)
		put([]byte("ticker"), value(i))
	}

	check := func(name string, on *Thread, run func()) {
		t.Helper()
		present := s.nvmDev.Now()
		run()
		if end := on.Clk.Now(); end < present {
			t.Errorf("%s ended %d ns behind the NVM channel's present when it started", name, present-end)
		}
	}
	check("DropRange", s.mnt, func() {
		if n := s.DropRange(key(0), key(100)); n != 100 {
			t.Errorf("DropRange removed %d keys, want 100", n)
		}
	})
	demoter := s.newThread(0, nil, nil, nil)
	check("demoteStep", demoter, func() { s.demoteStep(demoter, 0) })
	var chain svc.EvictedChain
	for k := 0; k < 240; k += 70 { // more than mergeGap apart
		idx := mustIdxOf(t, s, coldKey(k))
		chain.Entries = append(chain.Entries, &svc.Entry{HSITIdx: idx, Value: value(k), Ver: s.table.Version(idx)})
	}
	rewrites := s.Stats().ScanRewrites
	rewriter := s.newThread(0, sim.NewRNG(1), nil, nil)
	check("onScanEvict", rewriter, func() { s.onScanEvict(rewriter, chain) })
	if got := s.Stats().ScanRewrites - rewrites; got != 1 {
		t.Errorf("%d scan-range rewrites, want 1", got)
	}

	// The maintenance tick's kick: drop the trigger under the ring, which no
	// put has crossed, so the tick is the only probe to see it. Its pass must
	// not start at the clock of the ring's reclaimer, which nothing drove.
	present := s.nvmDev.Now()
	ticked.Store(true)
	s.watermark.Store(math.Float64bits(0.01))
	for deadline := time.Now().Add(5 * time.Second); earliest.Load() == math.MaxInt64; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no pass swung a pointer in 5 s after the trigger dropped under the ring")
		}
	}
	if at := earliest.Load(); at < present {
		t.Errorf("the tick's reclaim pass swung a pointer %d ns behind the NVM channel's present when the trigger dropped", present-at)
	}
}

// TestGCChurnStress is the gate for running with garbage collection on:
// two writers overwrite a small key set on 40 MiB devices with the
// default GC threshold and the scan-range rewrite enabled, so reclaimers,
// GC and the rewrite all relocate values at once, for a bounded time. No
// operation may fail — a Get spinning out with "kept moving" or a Put
// with "reclamation stalled" is what a chunk claimed from under its
// publisher looks like from outside — every writer reads its own last
// write, and the store ends well-coupled.
func TestGCChurnStress(t *testing.T) {
	const (
		writers = 2
		keys    = 6000 // per writer, 1 KiB values, written in random order
		budget  = 3 * time.Second
	)
	s, err := Open(Options{
		NumThreads:        writers,
		PWBBytesPerThread: 256 << 10,
		NumSSDs:           2,
		SSDBytes:          40 << 20,
		SVCBytes:          256 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	stop := time.Now().Add(budget)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for ti := 0; ti < writers; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			th := s.Thread(ti)
			rng := sim.NewRNG(uint64(ti) + 1)
			val := make([]byte, 1024)
			keyOf := func(k int) []byte { return key(ti*keys + k) }
			stamp := func(k, seq int) { copy(val, fmt.Sprintf("w%d-k%05d-s%09d", ti, k, seq)) }
			for seq := 1; time.Now().Before(stop); seq++ {
				k := rng.Intn(keys)
				stamp(k, seq)
				if err := th.Put(keyOf(k), val); err != nil {
					errs <- fmt.Errorf("writer %d put: %w", ti, err)
					return
				}
				switch rng.Uint64() % 16 {
				case 0: // own last write
					got, err := th.Get(keyOf(k))
					if err != nil || !bytes.Equal(got, val) {
						errs <- fmt.Errorf("writer %d key %d seq %d: got %.24q, %v", ti, k, seq, got, err)
						return
					}
				case 1: // a range, chained in the SVC for the rewrite
					start := rng.Intn(keys)
					err := th.Scan(keyOf(start), 20, func(kv KV) bool { return true })
					if err != nil {
						errs <- fmt.Errorf("writer %d scan: %w", ti, err)
						return
					}
				case 2, 3: // cold reads push scanned chains out of the SVC
					if _, err := th.Get(keyOf(rng.Intn(keys))); err != nil && !errors.Is(err, ErrNotFound) {
						errs <- fmt.Errorf("writer %d get: %w", ti, err)
						return
					}
				}
			}
		}(ti)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.Stats()
	t.Logf("%d puts, %d reclaims, %d GC runs moving %d values, %d scan rewrites",
		st.Puts, st.Reclaims, st.VS.GCRuns, st.VS.GCLiveMoved, st.ScanRewrites)
	// What the reclaimer costs the puts with GC and the rewrite competing
	// for the devices (TestReclaimerOffPutCriticalPath gates it with both
	// held off): logged, not gated — the mix of work done in the budget
	// is the host's.
	waits, _ := s.Metrics().Get("core.put_stall_ns", nil)
	t.Logf("%d puts (%.3f%%) waited for ring space, %.0f virtual ns each on average; %d attempts found a ring full; the reclaimers spent %d virtual ns per migrated record",
		st.PutsStalled, 100*float64(st.PutsStalled)/float64(st.Puts), waits.Hist.Mean,
		st.PutStalls, s.stats.reclaimNS.Load()/max(st.PWBLiveMigrated, 1))
	// 40 MiB devices reach the GC threshold after some 20,000 puts: a
	// plain run does many times that in its budget; under the race
	// detector the budget can end first.
	if st.VS.GCRuns == 0 && st.Puts >= 50_000 {
		t.Error("GC never ran: the stress did not reach its subject")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if rep := s.CheckInvariants(); !rep.OK() {
		t.Fatalf("invariants violated after stress: %v", rep.Problems)
	}
}
