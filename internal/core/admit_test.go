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

// handOffStore is a one-thread store with a cache whose reclaimer runs
// only when the test forces a pass.
func handOffStore(t *testing.T) *Store {
	t.Helper()
	return small(t, func(o *Options) {
		o.NumThreads = 1
		o.ReclaimWatermark = 0.95
	})
}

// TestReclaimHandsReadValuesToSVC: a value that was read while it sat in
// the PWB is in the cache once the reclaimer has moved it to flash — the
// next get costs no SSD read — and a value nobody read is not.
func TestReclaimHandsReadValuesToSVC(t *testing.T) {
	s := handOffStore(t)
	th := s.Thread(0)
	p := s.newThread(0, sim.NewRNG(1), nil, nil)
	for i := 0; i < 2; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := th.Get(key(0)); err != nil || !bytes.Equal(got, value(0)) {
		t.Fatalf("key 0 from the PWB = %q, %v", got, err)
	}
	if st := s.Stats(); st.PWBHits != 1 || st.SVC.Entries != 0 {
		t.Fatalf("before the pass: %d PWB hits, %d cache entries", st.PWBHits, st.SVC.Entries)
	}
	t0 := p.Clk.Now()
	pass(p)
	st := s.Stats()
	if st.PWBLiveMigrated != 2 || st.ReclaimAdmits != 1 || st.SVC.Entries != 1 {
		t.Fatalf("the pass migrated %d records, handed over %d, the cache holds %d; want 2, 1, 1",
			st.PWBLiveMigrated, st.ReclaimAdmits, st.SVC.Entries)
	}
	t.Logf("the pass took %d virtual ns for 2 records, 1 of them handed over", p.Clk.Now()-t0)

	ios, thClk := ssdReads(s), th.Clk.Now()
	if got, err := th.Get(key(0)); err != nil || !bytes.Equal(got, value(0)) {
		t.Fatalf("key 0 after the pass = %q, %v", got, err)
	}
	if st := s.Stats(); st.SVCHits != 1 || ssdReads(s) != ios {
		t.Fatalf("the read after the pass: %d SVC hits, %d SSD read IOs", st.SVCHits, ssdReads(s)-ios)
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
	if st := s.Stats(); st.ReclaimAdmits != 2 || ssdReads(s) != ios {
		t.Fatalf("after the update: %d handed over, %d SSD read IOs", st.ReclaimAdmits, ssdReads(s)-ios)
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

// noStaleEntry checks that HSIT word 1 of key k is empty or names a cache
// entry admitted under the entry's current publish version: nothing stale
// stays published. (Without relocation by GC or the scan rewrite, which
// move bytes under an unchanged value and leave the entry for the next
// read to retract, a mismatch is an admission that outlived a write.)
func noStaleEntry(t *testing.T, s *Store, k []byte) {
	t.Helper()
	idx := mustIdxOf(t, s, k)
	h := svcHandle(s, idx)
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
// where its invalidateOld finds word 1 empty and only the version
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
		if _, ok := s.admitToSVC(p.Clk, idx, ver, seqValue(0, 1)); ok {
			t.Fatal("a value superseded before the CAS was admitted")
		}
		s.cache.Sync()
		if h := svcHandle(s, idx); h != 0 || s.Stats().SVC.Entries != 0 {
			t.Fatalf("the superseded value stays published: word 1 = %d, %d entries", h, s.Stats().SVC.Entries)
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
		st := s.Stats()
		t.Logf("%d puts, %d gets (%d SVC hits), %d records migrated, %d handed over, %d hand-offs skipped, %d publishes lost",
			st.Puts, reads.Load(), st.SVCHits, st.PWBLiveMigrated, st.ReclaimAdmits, st.ReclaimAdmitSkips, st.ReclaimPublishLost)
		if st.ReclaimAdmits == 0 || st.SVCHits == 0 {
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

// TestScanRowsAdmittedOnSecondTouch: the first scan over rows on flash
// only sets their read-recency bits; the second admits them; the third
// is served from the cache. A point read counts as a touch too.
func TestScanRowsAdmittedOnSecondTouch(t *testing.T) {
	s, th := vsOnlyStore(t, 40, apart, nil)
	scanAll(t, th, 0, 20)
	if st := s.Stats(); st.ScanDeferred != 20 || st.SVC.Entries != 0 {
		t.Fatalf("first scan: %d rows deferred, %d admitted; want 20, 0", st.ScanDeferred, st.SVC.Entries)
	}
	scanAll(t, th, 10, 20) // rows 10-19 again, rows 20-29 for the first time
	if st := s.Stats(); st.ScanDeferred != 30 || st.SVC.Entries != 10 {
		t.Fatalf("overlapping scan: %d rows deferred, %d admitted; want 30, 10", st.ScanDeferred, st.SVC.Entries)
	}
	ios := ssdReads(s)
	scanAll(t, th, 10, 10)
	if st := s.Stats(); ssdReads(s) != ios || st.SVCHits != 10 {
		t.Fatalf("third scan of rows 10-19: %d SSD read IOs, %d SVC hits", ssdReads(s)-ios, st.SVCHits)
	}

	// Every point read admits what it fetched from flash, first touch or
	// not (§4.4), and leaves its mark for a later scan: MultiGet here; Get
	// is TestGetServedFromSVCAfterVSRead.
	before := s.Stats()
	if _, err := th.MultiGet([][]byte{aKey(30), aKey(31)}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SVC.Entries != before.SVC.Entries+2 || st.ScanDeferred != before.ScanDeferred {
		t.Fatalf("MultiGet of two rows on flash: %d entries admitted, %d deferred", st.SVC.Entries-before.SVC.Entries, st.ScanDeferred-before.ScanDeferred)
	}
	if !s.pop.read.has(mustIdxOf(t, s, aKey(30))) || s.pop.read.has(mustIdxOf(t, s, aKey(32))) {
		t.Fatal("the filter holds exactly the rows somebody read")
	}
}

// TestReadRowsKeepsScanAdmission: the row half of a scan on its own — what
// the shard router calls once its merge has chosen the rows — admits like
// a scan, not like the MultiGet it resembles: the first ReadRows over rows
// on flash defers every one, the second admits them, the third is served
// from the cache; and the lookup alone is not a touch.
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
	if st := s.Stats(); st.ScanDeferred != 20 || st.SVC.Entries != 0 || s.pop.read.n.Load() != 20 {
		t.Fatalf("first ReadRows: %d rows deferred, %d admitted, %d marked; want 20, 0, 20", st.ScanDeferred, st.SVC.Entries, s.pop.read.n.Load())
	}
	readRows()
	if st := s.Stats(); st.ScanDeferred != 20 || st.SVC.Entries != 20 {
		t.Fatalf("second ReadRows: %d rows deferred, %d admitted; want 20, 20", st.ScanDeferred, st.SVC.Entries)
	}
	ios := ssdReads(s)
	readRows()
	if st := s.Stats(); ssdReads(s) != ios || st.SVCHits != 20 {
		t.Fatalf("third ReadRows: %d SSD read IOs, %d SVC hits", ssdReads(s)-ios, st.SVCHits)
	}
	if st := s.Stats(); st.Scans != 1 || st.Gets != 0 {
		t.Fatalf("one walk and three row reads counted %d scans and %d gets, want 1 and 0", st.Scans, st.Gets)
	}

	// Rows the PWB serves never reach the Value Storage batch, where a
	// scan's touches are recorded: their lookups leave the filter alone. A
	// key that is gone comes back nil.
	fresh := [][]byte{[]byte("c0"), []byte("c1"), []byte("c2")}
	for _, k := range fresh {
		if err := th.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := th.Delete(fresh[1]); err != nil {
		t.Fatal(err)
	}
	vals, err := th.ReadRows(fresh, nil)
	if err != nil || string(vals[0]) != "v" || vals[1] != nil || string(vals[2]) != "v" {
		t.Fatalf("ReadRows of PWB rows = %q, %v", vals, err)
	}
	if n := s.pop.read.n.Load(); n != 20 {
		t.Fatalf("%d bits in the read filter after ReadRows of rows in the PWB, want the 20 from flash", n)
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
	if st := s.Stats(); st.SVC.Entries != hot || st.SVC.Evictions != 0 {
		t.Fatalf("the point reads left %d entries (%d evicted), want %d", st.SVC.Entries, st.SVC.Evictions, hot)
	}
	for from := hot; from < hot+rows; from += 100 {
		scanAll(t, th, from, 100)
	}
	s.cache.Sync()
	hits := s.Stats().SVCHits
	for i := 0; i < hot; i++ {
		mustGet(t, th, aKey(i))
	}
	st := s.Stats()
	rate := float64(st.SVCHits-hits) / hot
	t.Logf("after a one-pass scan of %d rows (%d deferred, %d evictions): %.2f of the %d point-read keys still hit", rows, st.ScanDeferred, st.SVC.Evictions, rate, hot)
	if rate < 0.9 {
		t.Fatalf("hit rate of the point-read set after a one-pass scan: %.2f, want >= 0.9", rate)
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
		if err := th.Put(key(0), value(0)); err != nil {
			t.Fatal(err)
		}
		mustGet(t, th, key(0))
		idx := mustIdx(t, s, 0)
		if err := th.Delete(key(0)); err != nil {
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
		if st := s.Stats(); st.PWBLiveMigrated != 1 || st.ReclaimAdmits != 0 {
			t.Fatalf("the pass migrated %d and handed over %d; the new key was never read", st.PWBLiveMigrated, st.ReclaimAdmits)
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
	st := s.Stats()
	if s.pop.read.n.Load() != 0 || s.pop.read.has(mustIdx(t, s, 0)) || st.SVC.Entries != 0 || st.ReclaimAdmits != 0 {
		t.Fatalf("after recovery: %d bits set, %d cache entries, %d handed over by the drain; want none",
			s.pop.read.n.Load(), st.SVC.Entries, st.ReclaimAdmits)
	}
	mustReadFromVS(t, s, n)
	if got := s.pop.read.n.Load(); got != n {
		t.Fatalf("%d bits after reading %d keys back", got, n)
	}
}
