package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// ssdReads is the number of read IOs the devices have served.
func ssdReads(s *Store) (n int64) {
	for _, ios := range readIOs(s) {
		n += ios
	}
	return n
}

// coldStore is a one-thread store with a cache whose reclaimer runs only
// when the test forces a pass, and a cache that has never filled.
func coldStore(t *testing.T) *Store {
	t.Helper()
	return small(t, func(o *Options) {
		o.NumThreads = 1
		o.reclaimWatermark = 0.95
	})
}

// handOffStore is coldStore once its cache has filled (fillOnce): what the
// reclaimer hands over is what reads asked for.
func handOffStore(t *testing.T) *Store {
	t.Helper()
	s := coldStore(t)
	fillOnce(t, s)
	return s
}

// TestColdCacheFillsOnce: a write-only load into an empty cache hands
// migrated records to it until the next would not fit — 58 entries of
// 1,120 bytes in 64 KiB — and then nothing, for good: the same keys
// written again drop every filler, nobody having read one, and the passes
// that move the new values admit none, though the room is back. The load
// sets no read or cached bit and evicts nothing.
func TestColdCacheFillsOnce(t *testing.T) {
	s := coldStore(t)
	th := s.Thread(0)
	p := s.newThread(0, sim.NewRNG(1), nil, nil)
	val := make([]byte, 1024)
	write := func() {
		for i := 0; i < 200; i++ {
			if err := th.Put(key(i), val); err != nil {
				t.Fatal(err)
			}
			if i%16 == 15 {
				s.cache.Sync() // the overwrites' drops are the manager's past
				pass(p)
			}
		}
		pass(p)
		s.cache.Sync()
	}
	write()
	fit := s.opt.SVCBytes / int64(len(val)+96)
	st := reg(t, s)
	if st.n("svc.reclaim_admits") != fit || st.n("svc.entries") != fit || st.n("svc.evictions") != 0 || s.cache.Filling(0) {
		t.Fatalf("a load of 200 KiB into a cache of %d entries handed over %d, left %d resident, evicted %d (still filling: %v)",
			fit, st.n("svc.reclaim_admits"), st.n("svc.entries"), st.n("svc.evictions"), s.cache.Filling(0))
	}
	write()
	st = reg(t, s)
	if st.n("svc.reclaim_admits") != fit || st.n("svc.entries") != 0 || s.pop.read.n.Load() != 0 || s.pop.cached.n.Load() != 0 {
		t.Fatalf("the same keys again: %d handed over in all, %d resident, %d read and %d cached bits; want %d, 0, 0, 0",
			st.n("svc.reclaim_admits"), st.n("svc.entries"), s.pop.read.n.Load(), s.pop.cached.n.Load(), fit)
	}
}

// TestFillerFirstHitIsItsAdmission: a value the reclaimer handed to a cold
// cache is a filler on probation. The first get is an SVC hit that only
// admits it — a refresh on probation, no promotion — and the second
// promotes it, as the second touch of a value a read admitted does.
func TestFillerFirstHitIsItsAdmission(t *testing.T) {
	s := coldStore(t)
	th := s.Thread(0)
	if err := th.Put(key(0), value(0)); err != nil {
		t.Fatal(err)
	}
	pass(s.newThread(0, sim.NewRNG(1), nil, nil))
	s.cache.Sync()
	if st := reg(t, s); st.n("svc.reclaim_admits") != 1 || st.n("svc.entries") != 1 {
		t.Fatalf("the pass handed over %d values, the cache holds %d; want 1, 1", st.n("svc.reclaim_admits"), st.n("svc.entries"))
	}
	ios := ssdReads(s)
	for hit, promotions := range []int64{0, 1} {
		if got := mustGet(t, th, key(0)); !bytes.Equal(got, value(0)) {
			t.Fatalf("get %d = %q", hit+1, got)
		}
		s.cache.Sync()
		if st := reg(t, s); st.n("core.read_path", "source", "svc") != int64(hit+1) || ssdReads(s) != ios || st.n("svc.promotions") != promotions {
			t.Fatalf("after get %d: %d SVC hits, %d SSD read IOs, %d promotions; want %d, 0, %d",
				hit+1, st.n("core.read_path", "source", "svc"), ssdReads(s)-ios, st.n("svc.promotions"), hit+1, promotions)
		}
	}
}

// TestFillerOverwriteEarnsNothing: an overwrite of a filler nobody read
// drops it and leaves no cached bit, so once the cache has filled, the
// pass that moves the new value hands it to nobody and the next get reads
// flash. A filler a get hit was wanted: its overwrite leaves the bit, and
// its new value goes back to the cache like any read key's.
func TestFillerOverwriteEarnsNothing(t *testing.T) {
	s := coldStore(t)
	th := s.Thread(0)
	p := s.newThread(0, sim.NewRNG(1), nil, nil)
	for i := 0; i < 2; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	pass(p)
	mustGet(t, th, key(1)) // an SVC hit: key 1's filler is wanted
	fillOnce(t, s)
	base := reg(t, s)
	if base.n("svc.entries") != 2 {
		t.Fatalf("the cache holds %d entries, want the 2 fillers", base.n("svc.entries"))
	}
	for i := 0; i < 2; i++ {
		if err := th.Put(key(i), value(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.pop.cached.has(mustIdx(t, s, 0)) || !s.pop.cached.has(mustIdx(t, s, 1)) {
		t.Fatalf("cached bits after the overwrites: unread filler %v, read filler %v; want false, true",
			s.pop.cached.has(mustIdx(t, s, 0)), s.pop.cached.has(mustIdx(t, s, 1)))
	}
	s.cache.Sync()
	p.Clk.AdvanceTo(th.Clk.Now())
	pass(p)
	s.cache.Sync()
	if admits := reg(t, s).n("svc.reclaim_admits") - base.n("svc.reclaim_admits"); admits != 1 {
		t.Fatalf("the pass handed over %d values, want the read key's 1", admits)
	}
	for i, want := range []int64{1, 0} {
		ios := ssdReads(s)
		if got := mustGet(t, th, key(i)); !bytes.Equal(got, value(100+i)) {
			t.Fatalf("key %d reads %q", i, got)
		}
		if got := ssdReads(s) - ios; got != want {
			t.Fatalf("key %d's get made %d SSD read IOs, want %d", i, got, want)
		}
	}
}

// TestReclaimHandsReadValuesToSVC: a value that was read while it sat in
// the PWB is in the cache once the reclaimer has moved it to flash — the
// next get costs no SSD read — and a value nobody read is not.
func TestReclaimHandsReadValuesToSVC(t *testing.T) {
	s := handOffStore(t)
	th := s.Thread(0)
	p := s.newThread(0, sim.NewRNG(1), nil, nil)
	base := reg(t, s)
	for i := 0; i < 2; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := th.Get(key(0)); err != nil || !bytes.Equal(got, value(0)) {
		t.Fatalf("key 0 from the PWB = %q, %v", got, err)
	}
	if st := reg(t, s); st.n("core.read_path", "source", "pwb") != 1 || st.n("svc.entries") != 0 {
		t.Fatalf("before the pass: %d PWB hits, %d cache entries", st.n("core.read_path", "source", "pwb"), st.n("svc.entries"))
	}
	t0 := p.Clk.Now()
	pass(p)
	st := reg(t, s)
	migrated, admits := st.n("pwb.live_migrated")-base.n("pwb.live_migrated"), st.n("svc.reclaim_admits")-base.n("svc.reclaim_admits")
	if migrated != 2 || admits != 1 || st.n("svc.entries") != 1 {
		t.Fatalf("the pass migrated %d records, handed over %d, the cache holds %d; want 2, 1, 1", migrated, admits, st.n("svc.entries"))
	}
	t.Logf("the pass took %d virtual ns for 2 records, 1 of them handed over", p.Clk.Now()-t0)

	ios, thClk := ssdReads(s), th.Clk.Now()
	if got, err := th.Get(key(0)); err != nil || !bytes.Equal(got, value(0)) {
		t.Fatalf("key 0 after the pass = %q, %v", got, err)
	}
	if st := reg(t, s); st.n("core.read_path", "source", "svc") != 1 || ssdReads(s) != ios {
		t.Fatalf("the read after the pass: %d SVC hits, %d SSD read IOs", st.n("core.read_path", "source", "svc"), ssdReads(s)-ios)
	}
	if d := th.Clk.Now() - thClk; d > 5_000 {
		t.Fatalf("an SVC hit took %d virtual ns", d)
	}
	// Put but never read: on flash only.
	if got, err := th.Get(key(1)); err != nil || !bytes.Equal(got, value(1)) {
		t.Fatalf("key 1 = %q, %v", got, err)
	}
	if got := ssdReads(s) - ios; got != 1 {
		t.Fatalf("the unread key's first get made %d SSD read IOs, want 1", got)
	}

	// An update kills the entry; the key stays read-recent, so the next
	// pass hands the new value over.
	if err := th.Put(key(0), value(100)); err != nil {
		t.Fatal(err)
	}
	pass(p)
	ios = ssdReads(s)
	if got, err := th.Get(key(0)); err != nil || !bytes.Equal(got, value(100)) {
		t.Fatalf("key 0 after its update and a pass = %q, %v", got, err)
	}
	if admits := reg(t, s).n("svc.reclaim_admits") - base.n("svc.reclaim_admits"); admits != 2 || ssdReads(s) != ios {
		t.Fatalf("after the update: %d handed over, %d SSD read IOs", admits, ssdReads(s)-ios)
	}
}

// seqValue is a self-describing value as in benchmark/gen.go: key id and
// per-key sequence number, padded to 256 bytes with a byte derived from
// both so torn bytes show.
func seqValue(k int, seq uint64) []byte {
	v := make([]byte, 256)
	binary.LittleEndian.PutUint64(v, uint64(k))
	binary.LittleEndian.PutUint64(v[8:], seq)
	for i := 16; i < len(v); i++ {
		v[i] = byte(uint64(k) + seq)
	}
	return v
}

func parseSeqValue(v []byte) (k int, seq uint64, ok bool) {
	if len(v) != 256 {
		return 0, 0, false
	}
	k, seq = int(binary.LittleEndian.Uint64(v)), binary.LittleEndian.Uint64(v[8:])
	return k, seq, bytes.Equal(v, seqValue(k, seq))
}

// noStaleEntry checks that the SVC handle of key k is empty or names a cache
// entry admitted under the entry's current publish version: nothing stale
// stays published. (Without relocation by GC or the scan rewrite, which
// move bytes under an unchanged value and leave the entry for the next
// read to retract, a mismatch is an admission that outlived a write.)
func noStaleEntry(t *testing.T, s *Store, k []byte) {
	t.Helper()
	idx := mustIdxOf(t, s, k)
	h := s.table.SVC(nil, idx)
	if h == 0 {
		return
	}
	if v, ver, ok := s.cache.Lookup(idx, h); ok && ver != s.table.Version(idx) {
		t.Fatalf("key %s: the cache publishes %.16q under version %d, the entry is at %d", k, v, ver, s.table.Version(idx))
	}
}

// TestReclaimAdmissionNeverStale: no acknowledged write is ever shadowed
// by a value the reclaimer admitted. A put that lands after the pass has
// swung the pointer invalidates the hand-off exactly as it invalidates a
// get's admission — also when it lands between PublishIf and the SVC CAS,
// where its invalidateOld finds no handle and only the version
// re-check after the CAS can retract the entry.
func TestReclaimAdmissionNeverStale(t *testing.T) {
	t.Run("put between PublishIf and the CAS", func(t *testing.T) {
		// The window frozen: admitToSVC is called the way handOff calls it,
		// with the version the pass's PublishIf returned and the bytes from
		// the ring, after a put that landed since.
		s := handOffStore(t)
		th := s.Thread(0)
		p := s.newThread(0, sim.NewRNG(1), nil, nil)
		if err := th.Put(key(0), seqValue(0, 1)); err != nil {
			t.Fatal(err)
		}
		pass(p) // never read: moved, not handed over
		idx := mustIdx(t, s, 0)
		ver := s.table.Version(idx)
		if err := th.Put(key(0), seqValue(0, 2)); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.admitToSVC(p.Clk, idx, ver, seqValue(0, 1), probation); ok {
			t.Fatal("a value superseded before the CAS was admitted")
		}
		s.cache.Sync()
		if h := s.table.SVC(nil, idx); h != 0 || reg(t, s).n("svc.entries") != 0 {
			t.Fatalf("the superseded value stays published: handle %d, %d entries", h, reg(t, s).n("svc.entries"))
		}
		if _, seq, ok := parseSeqValue(mustGet(t, th, key(0))); !ok || seq != 2 {
			t.Fatalf("read sequence %d after sequence 2 was acknowledged", seq)
		}
	})

	t.Run("stress", func(t *testing.T) {
		const (
			keys    = 64
			writers = 2
			readers = 2
		)
		// Every settle yields first, so puts and gets get between the
		// records of a pass.
		settleHook = func(*Thread) { runtime.Gosched() }
		t.Cleanup(func() { settleHook = nil }) // after the store has closed
		s := small(t, func(o *Options) {
			o.NumThreads = writers + readers
			o.PWBBytesPerThread = 16 << 10 // ~55 records: a pass every few dozen puts
			o.SSDBytes = 64 << 20          // no GC: noStaleEntry's premise
			o.ChunkSize = 64 << 10
		})
		for k := 0; k < keys; k++ {
			if err := s.Thread(k%writers).Put(key(k), seqValue(k, 1)); err != nil {
				t.Fatal(err)
			}
		}
		var acked [keys]atomic.Uint64 // last acknowledged sequence per key
		for k := range acked {
			acked[k].Store(1)
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		run := func(fn func(rng *sim.RNG), seed int) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := sim.NewRNG(uint64(seed))
				for {
					select {
					case <-stop:
						return
					default:
						fn(rng)
					}
				}
			}()
		}
		for w := 0; w < writers; w++ {
			th := s.Thread(w)
			run(func(rng *sim.RNG) { // one writer per key
				k := rng.Intn(keys/writers)*writers + w
				seq := acked[k].Load() + 1
				if err := th.Put(key(k), seqValue(k, seq)); err != nil {
					t.Errorf("put key %d: %v", k, err)
				}
				acked[k].Store(seq)
			}, w+1)
		}
		var reads atomic.Int64
		for r := 0; r < readers; r++ {
			th := s.Thread(writers + r)
			run(func(rng *sim.RNG) {
				k := rng.Intn(keys)
				floor := acked[k].Load()
				got, err := th.Get(key(k))
				gk, seq, ok := parseSeqValue(got)
				if err != nil || !ok || gk != k || seq < floor {
					t.Errorf("get key %d: key %d sequence %d (intact %v), %v; sequence %d was acknowledged before the read", k, gk, seq, ok, err, floor)
				}
				reads.Add(1)
			}, 100+r)
		}
		// Forced passes beside the rings' own reclaimers, each on a pass
		// thread of its own that starts at the NVM channel's present.
		run(func(rng *sim.RNG) {
			p := s.newThread(rng.Intn(writers), rng, nil, nil)
			p.Clk.AdvanceTo(s.nvmDev.Now())
			s.reclaimBuffer(p)
			s.em.Collect()
		}, 200)

		time.Sleep(time.Second)
		close(stop)
		wg.Wait()
		drain(t, s)
		s.cache.Sync()
		st := reg(t, s)
		t.Logf("%d puts, %d gets (%d SVC hits), %d records migrated, %d handed over, %d hand-offs skipped, %d publishes lost",
			st.n("core.ops", "op", "put"), reads.Load(), st.n("core.read_path", "source", "svc"), st.n("pwb.live_migrated"), st.n("svc.reclaim_admits"), st.n("svc.reclaim_admit_skips"), st.n("core.reclaim_publish_lost"))
		if st.n("svc.reclaim_admits") == 0 || st.n("core.read_path", "source", "svc") == 0 {
			t.Error("the stress did not reach its subject: nothing handed over, or nothing read from the cache")
		}
		th := s.Thread(writers)
		for k := 0; k < keys; k++ {
			noStaleEntry(t, s, key(k))
			if gk, seq, ok := parseSeqValue(mustGet(t, th, key(k))); !ok || gk != k || seq != acked[k].Load() {
				t.Errorf("key %d ends at key %d sequence %d (intact %v), last acknowledged %d", k, gk, seq, ok, acked[k].Load())
			}
		}
	})
}

func mustGet(t *testing.T, th *Thread, k []byte) []byte {
	t.Helper()
	v, err := th.Get(k)
	if err != nil {
		t.Fatalf("get %s: %v", k, err)
	}
	return v
}

// scanAll scans n rows from aKey(from) and checks them.
func scanAll(t *testing.T, th *Thread, from, n int) {
	t.Helper()
	i := from
	err := th.Scan(aKey(from), n, func(kv KV) bool {
		if !bytes.Equal(kv.Key, aKey(i)) || !bytes.Equal(kv.Value, aValue(i)) {
			t.Fatalf("scan row %d = %s", i, kv.Key)
		}
		i++
		return true
	})
	if err != nil || i != from+n {
		t.Fatalf("scan of %d rows from %d stopped at %d: %v", n, from, i, err)
	}
}

// uncache retracts key's cache entry the way a reader's currency check
// does, and waits for the cache manager to drop it.
func uncache(t *testing.T, s *Store, key []byte) {
	t.Helper()
	idx := mustIdxOf(t, s, key)
	if h := s.table.SVC(nil, idx); h != 0 && s.table.CasSVC(nil, idx, h, 0) {
		s.cache.Invalidate(idx, h)
	}
	s.cache.Sync()
}

// TestScanCachesARangeWhole: a scan admits its rows on flash only when
// every one of them was touched before. The first scan of a range only
// marks it; an overlapping scan that brings new rows admits none of its
// old ones either, since the next scan of that range would wait for the
// SSD anyway; the scan after it admits the whole range, and the next one
// reads no flash. A point read counts as a touch too.
func TestScanCachesARangeWhole(t *testing.T) {
	s, th := vsOnlyStore(t, 40, apart, nil)
	scanAll(t, th, 0, 20)
	if st := reg(t, s); st.n("svc.scan_deferred") != 20 || st.n("svc.entries") != 0 {
		t.Fatalf("first scan: %d rows deferred, %d admitted; want 20, 0", st.n("svc.scan_deferred"), st.n("svc.entries"))
	}
	scanAll(t, th, 10, 20) // rows 10-19 again, rows 20-29 for the first time
	if st := reg(t, s); st.n("svc.scan_deferred") != 40 || st.n("svc.entries") != 0 {
		t.Fatalf("overlapping scan: %d rows deferred, %d admitted; want 40, 0", st.n("svc.scan_deferred"), st.n("svc.entries"))
	}
	scanAll(t, th, 10, 20)
	if st := reg(t, s); st.n("svc.scan_deferred") != 40 || st.n("svc.entries") != 20 {
		t.Fatalf("third scan, of a range touched whole: %d rows deferred, %d admitted; want 40, 20", st.n("svc.scan_deferred"), st.n("svc.entries"))
	}
	ios := ssdReads(s)
	scanAll(t, th, 10, 20)
	if st := reg(t, s); ssdReads(s) != ios || st.n("core.read_path", "source", "svc") != 20 {
		t.Fatalf("fourth scan of rows 10-29: %d SSD read IOs, %d SVC hits", ssdReads(s)-ios, st.n("core.read_path", "source", "svc"))
	}
	if s.pop.read.n.Load() != 0 || s.pop.scanned.n.Load() != 30 {
		t.Fatalf("four scans left %d bits in the read plane and %d in the scanned plane; want 0, 30", s.pop.read.n.Load(), s.pop.scanned.n.Load())
	}

	// Every point read admits what it fetched from flash, first touch or
	// not (§4.4), and leaves its mark for a later scan: MultiGet here; Get
	// is TestGetServedFromSVCAfterVSRead.
	before := reg(t, s)
	if _, err := th.MultiGetInto([][]byte{aKey(30), aKey(31)}, nil); err != nil {
		t.Fatal(err)
	}
	if st := reg(t, s); st.n("svc.entries") != before.n("svc.entries")+2 || st.n("svc.scan_deferred") != before.n("svc.scan_deferred") {
		t.Fatalf("MultiGet of two rows on flash: %d entries admitted, %d deferred", st.n("svc.entries")-before.n("svc.entries"), st.n("svc.scan_deferred")-before.n("svc.scan_deferred"))
	}
	if !s.pop.read.has(mustIdxOf(t, s, aKey(30))) || s.pop.read.has(mustIdxOf(t, s, aKey(32))) {
		t.Fatal("the read plane holds exactly the rows somebody point-read")
	}
	// Rows 30-39 point-read, then out of the cache: the first scan of them
	// finds every row touched and caches the range whole.
	for i := 32; i < 40; i++ {
		mustGet(t, th, aKey(i))
	}
	for i := 30; i < 40; i++ {
		uncache(t, s, aKey(i))
	}
	before = reg(t, s)
	scanAll(t, th, 30, 10)
	if st := reg(t, s); st.n("svc.scan_deferred") != before.n("svc.scan_deferred") || st.n("svc.entries") != before.n("svc.entries")+10 {
		t.Fatalf("first scan of point-read rows: %d deferred, %d admitted; want 0, 10", st.n("svc.scan_deferred")-before.n("svc.scan_deferred"), st.n("svc.entries")-before.n("svc.entries"))
	}
	ios = ssdReads(s)
	scanAll(t, th, 30, 10)
	if ssdReads(s) != ios {
		t.Fatalf("the scan after it made %d SSD read IOs, want 0", ssdReads(s)-ios)
	}
}

// TestReadRowsKeepsScanAdmission: the row half of a scan on its own — what
// the shard router calls once its merge has chosen the rows — admits like
// a scan, not like the MultiGet it resembles: the first ReadRows over rows
// on flash defers every one and marks them on the scanned plane, not the
// read plane; the second admits them whole, the third is served from the
// cache; and the lookup alone is not a touch.
func TestReadRowsKeepsScanAdmission(t *testing.T) {
	s, th := vsOnlyStore(t, 40, apart, nil)
	var keys [][]byte
	if err := th.ScanKeys(aKey(5), 20, func(k []byte) bool {
		keys = append(keys, k)
		return true
	}); err != nil || len(keys) != 20 {
		t.Fatalf("ScanKeys: %d keys, %v", len(keys), err)
	}
	readRows := func() {
		t.Helper()
		vals, err := th.ReadRows(keys, nil)
		if err != nil || len(vals) != len(keys) {
			t.Fatalf("ReadRows: %d values, %v", len(vals), err)
		}
		for i, v := range vals {
			if !bytes.Equal(keys[i], aKey(5+i)) || !bytes.Equal(v, aValue(5+i)) {
				t.Fatalf("row %d is %s", i, keys[i])
			}
		}
	}
	readRows()
	if st := reg(t, s); st.n("svc.scan_deferred") != 20 || st.n("svc.entries") != 0 || s.pop.scanned.n.Load() != 20 || s.pop.read.n.Load() != 0 {
		t.Fatalf("first ReadRows: %d rows deferred, %d admitted, %d scanned and %d read bits; want 20, 0, 20, 0",
			st.n("svc.scan_deferred"), st.n("svc.entries"), s.pop.scanned.n.Load(), s.pop.read.n.Load())
	}
	readRows()
	if st := reg(t, s); st.n("svc.scan_deferred") != 20 || st.n("svc.entries") != 20 {
		t.Fatalf("second ReadRows: %d rows deferred, %d admitted; want 20, 20", st.n("svc.scan_deferred"), st.n("svc.entries"))
	}
	ios := ssdReads(s)
	readRows()
	if st := reg(t, s); ssdReads(s) != ios || st.n("core.read_path", "source", "svc") != 20 {
		t.Fatalf("third ReadRows: %d SSD read IOs, %d SVC hits", ssdReads(s)-ios, st.n("core.read_path", "source", "svc"))
	}
	if st := reg(t, s); st.n("core.ops", "op", "scan") != 1 || st.n("core.ops", "op", "get") != 0 {
		t.Fatalf("one walk and three row reads counted %d scans and %d gets, want 1 and 0", st.n("core.ops", "op", "scan"), st.n("core.ops", "op", "get"))
	}

	// Rows the PWB serves never reach the Value Storage batch, where a
	// scan's touches are recorded: their lookups leave both planes alone.
	// A key that is gone comes back nil.
	fresh := [][]byte{[]byte("c0"), []byte("c1"), []byte("c2")}
	for _, k := range fresh {
		if err := th.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := th.deleteSync(fresh[1], 0); err != nil {
		t.Fatal(err)
	}
	vals, err := th.ReadRows(fresh, nil)
	if err != nil || string(vals[0]) != "v" || vals[1] != nil || string(vals[2]) != "v" {
		t.Fatalf("ReadRows of PWB rows = %q, %v", vals, err)
	}
	if sc, rd := s.pop.scanned.n.Load(), s.pop.read.n.Load(); sc != 20 || rd != 0 {
		t.Fatalf("%d scanned and %d read bits after ReadRows of rows in the PWB, want the 20 scanned from flash and 0", sc, rd)
	}
}

// TestScansLeaveThePointReadFilter: scans over many times the filter's
// limit of distinct rows on flash neither age the read plane nor make
// the reclaimer forget who was point-read: every hot key, overwritten
// after the scans, is handed to the cache by the next pass. Scans that
// marked the read plane would clear it several times over here, and the
// pass would hand over none of the hot keys.
func TestScansLeaveThePointReadFilter(t *testing.T) {
	const (
		capacity = 200 // entries: 608-byte entries in 120 KiB
		hot      = 50
		rows     = 10 * capacity
	)
	s, th := vsOnlyStore(t, hot+rows, apart, func(o *Options) {
		o.SVCBytes = capacity * (512 + 96)
		o.SSDBytes = 32 << 20
		o.HSITCapacity = 1 << 16
		o.reclaimWatermark = 0.95
	})
	for i := 0; i < hot; i++ {
		mustGet(t, th, aKey(i))
	}
	s.cache.Sync()
	limit, marked := s.recentLimit(), s.pop.read.n.Load()
	if marked != hot || 4*limit > rows {
		t.Fatalf("%d read bits after %d point reads, filter limit %d; the test wants %d and at least 4 limits of scanned rows", marked, hot, limit, hot)
	}
	for from := hot; from < hot+rows; from += 100 {
		scanAll(t, th, from, 100)
	}
	if n := s.pop.read.n.Load(); n != marked {
		t.Fatalf("%d scanned rows (%d filter limits) moved the read plane from %d bits to %d", rows, rows/limit, marked, n)
	}
	for i := 0; i < hot; i++ {
		if !s.pop.read.has(mustIdxOf(t, s, aKey(i))) {
			t.Fatalf("hot key %d fell off the read plane during the scans", i)
		}
	}
	for i := 0; i < hot; i++ {
		if err := th.Put(aKey(i), aValue(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	s.cache.Sync()
	before := reg(t, s)
	p := s.newThread(0, sim.NewRNG(1), nil, nil)
	p.Clk.Reset(th.Clk.Now())
	pass(p)
	st := reg(t, s)
	if moved, handed := st.n("pwb.live_migrated")-before.n("pwb.live_migrated"), st.n("svc.reclaim_admits")-before.n("svc.reclaim_admits"); moved != hot || handed != hot {
		t.Fatalf("the pass migrated %d of the %d overwritten hot keys and handed %d to the cache; want all %d", moved, hot, handed, hot)
	}
}

// TestOnePassScanKeepsPointReadSet: fill half the cache with point reads,
// scan ten cache capacities of other rows once, read the point-read set
// again. The scan's rows were each touched once, so none was admitted and
// the set is still there. (At the parent commit every scanned row is
// admitted and the same test reads 0 of 100 from the cache: hit rate
// 0.00.)
func TestOnePassScanKeepsPointReadSet(t *testing.T) {
	const (
		capacity = 200 // entries: 608-byte entries in 120 KiB
		hot      = capacity / 2
		rows     = 10 * capacity
	)
	s, th := vsOnlyStore(t, hot+rows, apart, func(o *Options) {
		o.SVCBytes = capacity * (512 + 96)
		o.SSDBytes = 32 << 20
		o.HSITCapacity = 1 << 16
	})
	for i := 0; i < hot; i++ {
		mustGet(t, th, aKey(i))
	}
	s.cache.Sync()
	if st := reg(t, s); st.n("svc.entries") != hot || st.n("svc.evictions") != 0 {
		t.Fatalf("the point reads left %d entries (%d evicted), want %d", st.n("svc.entries"), st.n("svc.evictions"), hot)
	}
	for from := hot; from < hot+rows; from += 100 {
		scanAll(t, th, from, 100)
	}
	s.cache.Sync()
	hits := reg(t, s).n("core.read_path", "source", "svc")
	for i := 0; i < hot; i++ {
		mustGet(t, th, aKey(i))
	}
	st := reg(t, s)
	rate := float64(st.n("core.read_path", "source", "svc")-hits) / hot
	t.Logf("after a one-pass scan of %d rows (%d deferred, %d evictions): %.2f of the %d point-read keys still hit", rows, st.n("svc.scan_deferred"), st.n("svc.evictions"), rate, hot)
	if rate < 0.9 {
		t.Fatalf("hit rate of the point-read set after a one-pass scan: %.2f, want >= 0.9", rate)
	}
}

// TestOverwriteKeepsCachedKey: a key read twice sits on the SVC's
// protected list; its overwrite drops the entry and puts the slot on the
// cached plane, so the reclaimer hands the new value back to the protected
// list. The next get is an SVC hit with no SSD read, after a flood of
// one-touch admissions that evicts everything on probation. A freed slot
// keeps its cached bit only until a new key takes it.
func TestOverwriteKeepsCachedKey(t *testing.T) {
	const (
		capacity = 20 // entries: 608-byte entries
		flood    = 5 * capacity
	)
	s, th := vsOnlyStore(t, 1+flood, apart, func(o *Options) {
		o.SVCBytes = capacity * (512 + 96)
		o.reclaimWatermark = 0.95
	})
	base := reg(t, s)
	mustGet(t, th, aKey(0)) // from the SSD, admitted on probation
	mustGet(t, th, aKey(0)) // an SVC hit: promoted
	s.cache.Sync()
	idx := mustIdxOf(t, s, aKey(0))
	if st := reg(t, s); st.n("svc.promotions") != 1 {
		t.Fatalf("two point reads made %d promotions, want 1", st.n("svc.promotions"))
	}
	if err := th.Put(aKey(0), aValue(1)); err != nil {
		t.Fatal(err)
	}
	if !s.pop.cached.has(idx) || s.table.SVC(nil, idx) != 0 {
		t.Fatalf("after the overwrite: cached bit %v, SVC handle %d", s.pop.cached.has(idx), s.table.SVC(nil, idx))
	}
	s.cache.Sync()
	p := s.newThread(0, sim.NewRNG(1), nil, nil)
	p.Clk.Reset(th.Clk.Now())
	pass(p)
	if admits := reg(t, s).n("svc.reclaim_admits") - base.n("svc.reclaim_admits"); admits != 1 || s.pop.cached.has(idx) {
		t.Fatalf("the pass handed over %d values, cached bit %v after it; want 1, spent", admits, s.pop.cached.has(idx))
	}
	for i := 1; i <= flood; i++ {
		mustGet(t, th, aKey(i))
	}
	s.cache.Sync()
	before, ios := reg(t, s), ssdReads(s)
	if before.n("svc.evictions") < flood-capacity {
		t.Fatalf("the flood of %d one-touch admissions evicted %d entries", flood, before.n("svc.evictions"))
	}
	if got := mustGet(t, th, aKey(0)); !bytes.Equal(got, aValue(1)) {
		t.Fatalf("the overwritten key reads %.16q", got)
	}
	if st := reg(t, s); st.n("core.read_path", "source", "svc")-before.n("core.read_path", "source", "svc") != 1 || ssdReads(s) != ios {
		t.Fatalf("the overwritten key's get after the flood: %d SVC hits, %d SSD read IOs; want 1, 0",
			st.n("core.read_path", "source", "svc")-before.n("core.read_path", "source", "svc"), ssdReads(s)-ios)
	}

	// A delete unpublishes the entry too; the slot's next key, which
	// nobody has read, inherits nothing and is handed to nobody.
	if err := th.deleteSync(aKey(0), 0); err != nil {
		t.Fatal(err)
	}
	if !s.pop.cached.has(idx) {
		t.Fatal("the delete of a cached key left no cached bit")
	}
	s.em.Barrier() // the freed slot is back on the free list
	if err := th.Put([]byte("fresh"), aValue(2)); err != nil {
		t.Fatal(err)
	}
	if got := mustIdxOf(t, s, []byte("fresh")); got != idx {
		t.Fatalf("the new key took slot %d, not the freed %d", got, idx)
	}
	if s.pop.cached.has(idx) {
		t.Fatal("a new key inherited the freed slot's cached bit")
	}
	admits := reg(t, s).n("svc.reclaim_admits")
	p.Clk.Reset(th.Clk.Now())
	pass(p)
	if got := reg(t, s).n("svc.reclaim_admits") - admits; got != 0 {
		t.Fatalf("the pass handed the unread new key to the cache (%d hand-offs)", got)
	}
}

// TestReadFilterAgeing: the filter never holds more bits than its limit —
// it clears itself first — and the limit follows the cache: recentSpan
// capacities of the entries it holds.
func TestReadFilterAgeing(t *testing.T) {
	t.Run("bound", func(t *testing.T) {
		limit := int64(100)
		f := newPopularity(1<<12, false, func() int64 { return limit })
		count := func() (n int64) {
			for idx := uint64(0); idx < 1<<12; idx++ {
				if f.read.has(idx) {
					n++
				}
			}
			return n
		}
		for idx := uint64(0); idx < 1<<12; idx++ {
			if f.mark(idx) {
				t.Fatalf("slot %d was on record before its first read", idx)
			}
			if !f.mark(idx) || !f.read.has(idx) {
				t.Fatalf("slot %d not on record after its first read", idx)
			}
			if n := count(); n > limit || n != f.read.n.Load() {
				t.Fatalf("after %d distinct reads the filter holds %d bits and counts %d; limit %d", idx+1, n, f.read.n.Load(), limit)
			}
		}
		// 4,096 distinct reads at 100 a generation: the newest generation only.
		if n := count(); n != (1<<12)%100 {
			t.Fatalf("%d bits at the end, want %d", n, (1<<12)%100)
		}
		f.forget(1<<12 - 1)
		f.forget(0) // not set: not counted down
		if n := count(); n != (1<<12)%100-1 || n != f.read.n.Load() {
			t.Fatalf("after forgetting one slot: %d bits, %d counted", n, f.read.n.Load())
		}
	})

	// The write planes: the first write of a slot is not hot, the second
	// is; they age by distinct written slots, one-shot inserts included;
	// and a write never reaches the read plane.
	t.Run("write planes", func(t *testing.T) {
		const slots = 1 << 12
		f := newPopularity(slots, true, func() int64 { return math.MaxInt64 })
		if f.writeLimit != slots/4 {
			t.Fatalf("write limit %d, want a quarter of %d slots", f.writeLimit, slots)
		}
		const hot = 7
		f.wrote(hot)
		if f.again.has(hot) {
			t.Fatal("hot after one write: a bulk load would be hot")
		}
		f.wrote(hot)
		if !f.again.has(hot) {
			t.Fatal("not hot after two writes")
		}
		// One-shot inserts up to the limit leave it hot; the next one ages
		// every slot out, itself excepted.
		for idx := uint64(100); f.written.n.Load() < f.writeLimit; idx++ {
			f.wrote(idx)
		}
		if !f.again.has(hot) {
			t.Fatalf("cooled after %d distinct written slots, limit %d", f.written.n.Load(), f.writeLimit)
		}
		f.wrote(slots - 1)
		if f.again.has(hot) || f.written.has(hot) || !f.written.has(slots-1) || f.written.n.Load() != 1 || f.again.n.Load() != 0 {
			t.Fatalf("after the write past the limit: %d written, %d again; want the one slot just written", f.written.n.Load(), f.again.n.Load())
		}
		if f.read.n.Load() != 0 || f.read.has(hot) || f.read.has(slots-1) {
			t.Fatal("a write set a read bit: a write-only key would be handed to the cache")
		}
		// Slot reuse drops every plane and keeps every count.
		f.wrote(hot)
		f.wrote(hot)
		f.mark(hot)
		f.forget(hot)
		f.forget(hot + 1) // nothing set: nothing counted down
		if f.read.has(hot) || f.written.has(hot) || f.again.has(hot) || f.read.n.Load() != 0 || f.written.n.Load() != 1 || f.again.n.Load() != 0 {
			t.Fatalf("after forgetting the slot: %d read, %d written, %d again", f.read.n.Load(), f.written.n.Load(), f.again.n.Load())
		}
		f.wrote(hot)
		if f.again.has(hot) {
			t.Fatal("the slot's new key is hot on its first write")
		}
		// Untiered: no write planes, and wrote and forget are no-ops on them.
		u := newPopularity(slots, false, func() int64 { return math.MaxInt64 })
		u.wrote(hot)
		u.wrote(hot)
		u.forget(hot)
		if u.written.bits != nil || u.again.bits != nil {
			t.Fatal("an untiered store allocated write planes")
		}
	})

	// Every plane is allocated once, in Open: a crash clears them where
	// they are.
	t.Run("crash clears in place", func(t *testing.T) {
		s := tieredStore(t, nil)
		th := s.Thread(0)
		for r := 0; r < 2; r++ {
			if err := th.Put(hotKey(0), val512(0)); err != nil {
				t.Fatal(err)
			}
		}
		mustGet(t, th, hotKey(0))
		idx := mustIdxOf(t, s, hotKey(0))
		if !s.pop.again.has(idx) || !s.pop.read.has(idx) {
			t.Fatal("a key written twice and read is on no plane")
		}
		tracker, planes := s.pop, [3]*atomic.Uint64{&s.pop.read.bits[0], &s.pop.written.bits[0], &s.pop.again.bits[0]}
		s.Crash()
		if _, err := s.Recover(); err != nil {
			t.Fatal(err)
		}
		if s.pop != tracker || planes != [3]*atomic.Uint64{&s.pop.read.bits[0], &s.pop.written.bits[0], &s.pop.again.bits[0]} {
			t.Error("Crash or Recover reallocated the tracker; it clears in place")
		}
		if s.pop.again.has(idx) || s.pop.read.has(idx) || s.pop.read.n.Load()+s.pop.written.n.Load()+s.pop.again.n.Load() != 0 {
			t.Fatalf("after recovery: %d read, %d written, %d again; every key restarts cold",
				s.pop.read.n.Load(), s.pop.written.n.Load(), s.pop.again.n.Load())
		}
	})

	t.Run("limit follows the cache", func(t *testing.T) {
		s, th := vsOnlyStore(t, 10, apart, func(o *Options) { o.SVCBytes = 100 * (512 + 96) })
		if got := s.recentLimit(); got < 1<<40 {
			t.Fatalf("limit %d over an empty cache: nothing to protect yet, the filter keeps everything", got)
		}
		mustGet(t, th, aKey(0))
		if got := s.recentLimit(); got != recentSpan*100 {
			t.Fatalf("limit %d with 608-byte entries in a cache of 100 of them, want %d", got, recentSpan*100)
		}
	})

	// A stale bit outlives its key only until the slot is handed out
	// again: the new key, never read, is not handed to the cache.
	t.Run("slot reuse", func(t *testing.T) {
		s := handOffStore(t)
		th := s.Thread(0)
		p := s.newThread(0, sim.NewRNG(1), nil, nil)
		base := reg(t, s)
		if err := th.Put(key(0), value(0)); err != nil {
			t.Fatal(err)
		}
		mustGet(t, th, key(0))
		idx := mustIdx(t, s, 0)
		if err := th.deleteSync(key(0), 0); err != nil {
			t.Fatal(err)
		}
		s.em.Barrier() // grace: the slot is free
		if !s.pop.read.has(idx) {
			t.Fatal("the deleted key's bit is gone already; the test wants it stale")
		}
		if err := th.Put(key(1), value(1)); err != nil {
			t.Fatal(err)
		}
		if got := mustIdx(t, s, 1); got != idx {
			t.Fatalf("the new key took slot %d, not the freed %d", got, idx)
		}
		pass(p)
		st := reg(t, s)
		if migrated, admits := st.n("pwb.live_migrated")-base.n("pwb.live_migrated"), st.n("svc.reclaim_admits")-base.n("svc.reclaim_admits"); migrated != 1 || admits != 0 {
			t.Fatalf("the pass migrated %d and handed over %d; the new key was never read", migrated, admits)
		}
	})
}

// TestRecoverStartsWithNothingRead: who read what is DRAM state. After
// Crash and Recover the filter and the cache are empty, and recovery's
// drain — which moves PWB records through the reclaimer's migrate — has
// admitted nothing.
func TestRecoverStartsWithNothingRead(t *testing.T) {
	s := handOffStore(t)
	th := s.Thread(0)
	base := reg(t, s)
	const n = 50
	for i := 0; i < n; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
		mustGet(t, th, key(i)) // from the PWB: read-recent, still in the ring
	}
	if got := s.pop.read.n.Load(); got != n {
		t.Fatalf("%d bits set before the crash, want %d", got, n)
	}
	bits := &s.pop.read.bits[0]
	s.Crash()
	rep, err := s.Recover()
	if err != nil || rep.PWBValuesDrained != n {
		t.Fatalf("recovery drained %d of %d: %v", rep.PWBValuesDrained, n, err)
	}
	if &s.pop.read.bits[0] != bits {
		t.Error("Crash reallocated the filter; it clears in place")
	}
	st := reg(t, s)
	admits := st.n("svc.reclaim_admits") - base.n("svc.reclaim_admits")
	if s.pop.read.n.Load() != 0 || s.pop.read.has(mustIdx(t, s, 0)) || st.n("svc.entries") != 0 || admits != 0 {
		t.Fatalf("after recovery: %d bits set, %d cache entries, %d handed over by the drain; want none",
			s.pop.read.n.Load(), st.n("svc.entries"), admits)
	}
	mustReadFromVS(t, s, n)
	if got := s.pop.read.n.Load(); got != n {
		t.Fatalf("%d bits after reading %d keys back", got, n)
	}
}

// TestRecoveredCacheFillsFromScans: the cache Recover builds starts cold,
// whatever the crashed one had done. A scan of rows on flash that nobody
// touched before, which the filled cache deferred, admits them while the
// new cache fills, and the same scan again reads no flash.
func TestRecoveredCacheFillsFromScans(t *testing.T) {
	s, th := vsOnlyStore(t, 40, apart, nil)
	scanAll(t, th, 10, 20)
	if st := reg(t, s); st.n("svc.scan_deferred") != 20 || st.n("svc.entries") != 0 {
		t.Fatalf("a first scan over a cache that has filled: %d rows deferred, %d admitted; want 20, 0", st.n("svc.scan_deferred"), st.n("svc.entries"))
	}
	s.Crash()
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if !s.cache.Filling(0) {
		t.Fatal("the recovered cache has filled already")
	}
	before, ios := reg(t, s), ssdReads(s)
	scanAll(t, th, 10, 20)
	st := reg(t, s)
	if ssdReads(s) == ios || st.n("svc.scan_deferred") != before.n("svc.scan_deferred") || st.n("svc.entries") != 20 {
		t.Fatalf("the scan after recovery: %d SSD read IOs, %d rows deferred, %d admitted; want some, 0, 20",
			ssdReads(s)-ios, st.n("svc.scan_deferred")-before.n("svc.scan_deferred"), st.n("svc.entries"))
	}
	ios = ssdReads(s)
	scanAll(t, th, 10, 20)
	if got := reg(t, s).n("core.read_path", "source", "svc") - st.n("core.read_path", "source", "svc"); ssdReads(s) != ios || got != 20 {
		t.Fatalf("the scan again: %d SSD read IOs, %d SVC hits; want 0, 20", ssdReads(s)-ios, got)
	}
}
