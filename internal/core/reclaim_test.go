package core

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/hsit"
	"repro/internal/sim"
	"repro/internal/valuestore"
)

// quietReclaim opens a one-thread store whose background reclaimer never
// triggers on its own (the watermark sits above anything the tests
// append), so the test decides when a pass runs and what it finds.
func quietReclaim(t *testing.T) *Store {
	t.Helper()
	return small(t, func(o *Options) {
		o.NumThreads = 1
		o.reclaimWatermark = 0.95
		o.DisableSVC = true // every read of a migrated value is a VS read
	})
}

// pass runs one reclaim pass over ring p.id on the test's pass thread p
// and returns the ring's reclaim cursor afterwards.
func pass(p *Thread) uint64 {
	s := p.s
	s.reclaimBuffer(p)
	r := &s.reclaimers[p.id]
	r.mu.Lock()
	defer r.mu.Unlock()
	cursor, _ := r.buf.ScanRange()
	return cursor
}

// mustReadFromVS checks keys [0, n) hold value(i) and that every one of
// the reads went to Value Storage.
func mustReadFromVS(t *testing.T, s *Store, n int) {
	t.Helper()
	th := s.Thread(0)
	before := reg(t, s).n("core.read_path", "source", "vs")
	for i := 0; i < n; i++ {
		got, err := th.Get(key(i))
		if err != nil || !bytes.Equal(got, value(i)) {
			t.Fatalf("key %d = %q, %v", i, got, err)
		}
	}
	if got := reg(t, s).n("core.read_path", "source", "vs") - before; got != int64(n) {
		t.Fatalf("%d of %d reads came from Value Storage", got, n)
	}
}

// TestReclaimScansEachRecordOnce pins the reclaim cursor's point: ring
// space is released an epoch grace period after the pass that scanned
// it, and with a participant parked inside an epoch it is not released
// at all — yet no pass may read a record an earlier pass already
// migrated. Scanning from the tail instead re-reads everything since the
// last applied grant on every pass (210 records for every 20 here).
func TestReclaimScansEachRecordOnce(t *testing.T) {
	const passes, perPass = 20, 20
	s := quietReclaim(t)
	th := s.Thread(0)
	p := s.newThread(0, sim.NewRNG(1), nil, nil)

	pinned := s.em.Register()
	pinned.Enter()
	unpin := sync.OnceFunc(pinned.Exit)
	t.Cleanup(unpin) // before the store's Close, which waits for epochs
	for n := 0; n < passes; n++ {
		for i := n * perPass; i < (n+1)*perPass; i++ {
			if err := th.Put(key(i), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		if cursor := pass(p); cursor != s.pwbs[0].Head() {
			t.Fatalf("pass %d left the cursor at %d, head %d", n, cursor, s.pwbs[0].Head())
		}
	}
	if tail := s.pwbs[0].Tail(); tail != 0 {
		t.Fatalf("tail moved to %d with an epoch pinned", tail)
	}
	st := reg(t, s)
	if st.n("pwb.reclaims") != passes || st.n("pwb.records_scanned") != passes*perPass || st.n("pwb.live_migrated") != passes*perPass {
		t.Fatalf("%d passes scanned %d records and migrated %d; %d were appended",
			st.n("pwb.reclaims"), st.n("pwb.records_scanned"), st.n("pwb.live_migrated"), passes*perPass)
	}

	// Grace over: the grants land, and the next pass folds them in.
	unpin()
	s.em.Barrier()
	pass(p)
	if b := s.pwbs[0]; b.Tail() != b.Head() {
		t.Fatalf("tail %d, head %d after the grants applied", b.Tail(), b.Head())
	}
	if got := reg(t, s).n("pwb.records_scanned"); got != passes*perPass {
		t.Fatalf("an empty pass scanned: %d records", got)
	}
	mustReadFromVS(t, s, passes*perPass)
}

// TestReclaimCursorFailurePaths: a pass that cannot finish — no device
// has a chunk to give, or a ring header does not parse — leaves the
// cursor where it was, so the next pass scans the range again and
// nothing is lost; Crash and Recover restart the cursor with the ring.
func TestReclaimCursorFailurePaths(t *testing.T) {
	const n = 100
	load := func(t *testing.T, s *Store) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := s.Thread(0).Put(key(i), value(i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("no free chunk", func(t *testing.T) {
		s := quietReclaim(t)
		p := s.newThread(0, sim.NewRNG(1), nil, nil)
		load(t, s)
		// Take every chunk of every store.
		var held []*valuestore.Writer
		for _, st := range s.vsm.Stores {
			for {
				w, err := st.NewWriter()
				if err != nil {
					break
				}
				held = append(held, w)
			}
		}
		if cursor := pass(p); cursor != 0 {
			t.Fatalf("cursor moved to %d though nothing could migrate", cursor)
		}
		if st := reg(t, s); st.n("pwb.records_scanned") != n || st.n("pwb.live_migrated") != 0 {
			t.Fatalf("failed pass scanned %d, migrated %d", st.n("pwb.records_scanned"), st.n("pwb.live_migrated"))
		}
		for _, w := range held {
			w.Abort()
		}
		if cursor := pass(p); cursor != s.pwbs[0].Head() {
			t.Fatalf("retry left the cursor at %d, head %d", cursor, s.pwbs[0].Head())
		}
		if st := reg(t, s); st.n("pwb.records_scanned") != 2*n || st.n("pwb.live_migrated") != n {
			t.Fatalf("retry: scanned %d in total, migrated %d", st.n("pwb.records_scanned"), st.n("pwb.live_migrated"))
		}
		mustReadFromVS(t, s, n)
	})

	t.Run("torn header", func(t *testing.T) {
		s := quietReclaim(t)
		p := s.newThread(0, sim.NewRNG(1), nil, nil)
		load(t, s)
		// Smash the magic of a record in the middle of the range.
		magicOff := int(s.table.Load(nil, mustIdx(t, s, n/2)).Off) + 12
		good := make([]byte, 4)
		s.nvmDev.Load(nil, magicOff, good)
		s.nvmDev.Store(nil, magicOff, []byte{0xde, 0xad, 0xbe, 0xef})
		if cursor := pass(p); cursor != 0 {
			t.Fatalf("cursor moved to %d past a torn header", cursor)
		}
		if st := reg(t, s); st.n("pwb.scan_torn_record") != 1 || st.n("pwb.live_migrated") != 0 {
			t.Fatalf("torn pass: %d torn, %d migrated", st.n("pwb.scan_torn_record"), st.n("pwb.live_migrated"))
		}
		s.nvmDev.Store(nil, magicOff, good)
		if cursor := pass(p); cursor != s.pwbs[0].Head() {
			t.Fatalf("retry left the cursor at %d, head %d", cursor, s.pwbs[0].Head())
		}
		if st := reg(t, s); st.n("pwb.live_migrated") != n {
			t.Fatalf("retry migrated %d of %d", st.n("pwb.live_migrated"), n)
		}
		mustReadFromVS(t, s, n)
	})

	t.Run("crash and recover", func(t *testing.T) {
		s := quietReclaim(t)
		p := s.newThread(0, sim.NewRNG(1), nil, nil)
		load(t, s)
		if cursor := pass(p); cursor == 0 {
			t.Fatal("pass did not move the cursor")
		}
		// A second generation stays in the ring across the crash.
		for i := 0; i < n/2; i++ {
			if err := s.Thread(0).Put(key(i), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		s.Crash()
		rep, err := s.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if rep.PWBValuesDrained != n/2 || rep.LiveKeys != n {
			t.Fatalf("recovery drained %d, %d live", rep.PWBValuesDrained, rep.LiveKeys)
		}
		if from, to := s.pwbs[0].ScanRange(); from != 0 || to != 0 {
			t.Fatalf("scan range [%d,%d) after recovery, want the empty ring's", from, to)
		}
		mustReadFromVS(t, s, n)
		// The new incarnation's first pass starts at the new ring's start.
		scanned := reg(t, s).n("pwb.records_scanned")
		if err := s.Thread(0).Put(key(0), value(0)); err != nil {
			t.Fatal(err)
		}
		pass(p)
		if got := reg(t, s).n("pwb.records_scanned") - scanned; got != 1 {
			t.Fatalf("first pass after recovery scanned %d records, want 1", got)
		}
		if ptr := s.table.Load(nil, mustIdx(t, s, 0)); ptr.Media != hsit.VS {
			t.Fatalf("key 0 at %v after the pass", ptr)
		}
	})
}

func mustIdx(t *testing.T, s *Store, i int) uint64 {
	t.Helper()
	return mustIdxOf(t, s, key(i))
}

func mustIdxOf(t *testing.T, s *Store, k []byte) uint64 {
	t.Helper()
	idx, ok := s.index.Lookup(nil, k)
	if !ok {
		t.Fatalf("key %s not in the index", k)
	}
	return idx
}

// churn runs puts puts of 1 KiB values per thread over keys keys each,
// every thread on its own goroutine, and returns the virtual ns the
// slowest-clocked thread spent per put.
func churn(t *testing.T, s *Store, keys, puts int) (nsPerPut float64) {
	t.Helper()
	var wg sync.WaitGroup
	var spent int64
	var mu sync.Mutex
	for ti := 0; ti < s.NumThreads(); ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			th := s.Thread(ti)
			val := bytes.Repeat([]byte{byte('a' + ti)}, 1024)
			t0 := th.Clk.Now()
			for i := 0; i < puts; i++ {
				if err := th.Put(key(ti*keys+i%keys), val); err != nil {
					t.Error(err)
					return
				}
			}
			mu.Lock()
			spent = max(spent, th.Clk.Now()-t0)
			mu.Unlock()
		}(ti)
	}
	wg.Wait()
	return float64(spent) / float64(puts)
}

// TestReclaimerOffPutCriticalPath is §5.2's promise as a gate: with two
// threads overwriting 1 KiB values and a background reclaimer per ring,
// a reclaimer spends less virtual time on a record than a put does —
// and no more than 1,000 ns: its HSIT checks and pointer swings overlap —
// so it keeps up, and fewer than one put in a hundred reaches ring space
// the reclaimer has not released yet.
func TestReclaimerOffPutCriticalPath(t *testing.T) {
	s := small(t, func(o *Options) {
		o.PWBBytesPerThread = 1 << 20
		o.ChunkSize = 0        // the default 512 KiB
		o.SSDBytes = 256 << 20 // room enough that GC stays off: see TestGCChurnStress for it on
		o.GCFreeFraction = 0.05
		o.DisableSVC = true
	})
	const keys, puts = 4_000, 40_000
	nsPerPut := churn(t, s, keys, puts)
	st := reg(t, s)
	nsPerRecord := float64(st.n("pwb.reclaim_ns")) / float64(st.n("pwb.live_migrated"))
	stalled := float64(st.n("core.puts_stalled")) / float64(st.n("core.ops", "op", "put"))
	t.Logf("%.0f virtual ns per put, %.0f per migrated record (%d passes, %d records); %d of %d puts stalled (%.3f%%), %d found the ring full",
		nsPerPut, nsPerRecord, st.n("pwb.reclaims"), st.n("pwb.live_migrated"), st.n("core.puts_stalled"), st.n("core.ops", "op", "put"), 100*stalled, st.n("core.put_stalls"))
	if nsPerRecord > 1_000 || nsPerRecord >= nsPerPut {
		t.Errorf("the reclaimer spends %.0f virtual ns per migrated record; a put takes %.0f and the budget is 1000", nsPerRecord, nsPerPut)
	}
	if stalled >= 0.01 {
		t.Errorf("%.2f%% of puts waited for reclamation", 100*stalled)
	}
}
