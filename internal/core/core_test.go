package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/hsit"
	"repro/internal/sim"
)

// small returns a store sized so that reclamation, caching, and GC all
// trigger quickly in tests.
func small(t testing.TB, mutate func(*Options)) *Store {
	t.Helper()
	opt := Options{
		NumThreads:        2,
		PWBBytesPerThread: 64 << 10,
		HSITCapacity:      1 << 14,
		NumSSDs:           2,
		SSDBytes:          4 << 20,
		ChunkSize:         16 << 10,
		SVCBytes:          64 << 10,
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

func key(i int) []byte   { return []byte(fmt.Sprintf("user%08d", i)) }
func value(i int) []byte { return []byte(fmt.Sprintf("value-%08d-%032d", i, i)) }

func TestPutGetRoundTrip(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	if err := th.Put(key(1), value(1)); err != nil {
		t.Fatal(err)
	}
	got, err := th.Get(key(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, value(1)) {
		t.Fatalf("Get = %q, want %q", got, value(1))
	}
	if _, err := th.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key err = %v", err)
	}
}

func TestUpdateReturnsLatest(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	for v := 0; v < 10; v++ {
		if err := th.Put(key(1), []byte(fmt.Sprintf("v%d", v))); err != nil {
			t.Fatal(err)
		}
		got, err := th.Get(key(1))
		if err != nil || string(got) != fmt.Sprintf("v%d", v) {
			t.Fatalf("after update %d: %q, %v", v, got, err)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestDelete(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	th.Put(key(1), value(1))
	th.Put(key(2), value(2))
	if err := th.deleteSync(key(1), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Get(key(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key: %v", err)
	}
	if err := th.deleteSync(key(1), 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if got, err := th.Get(key(2)); err != nil || !bytes.Equal(got, value(2)) {
		t.Fatalf("unrelated key disturbed: %q, %v", got, err)
	}
}

func TestReinsertAfterDelete(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	th.Put(key(1), []byte("first"))
	th.deleteSync(key(1), 0)
	th.Put(key(1), []byte("second"))
	got, err := th.Get(key(1))
	if err != nil || string(got) != "second" {
		t.Fatalf("reinsert: %q, %v", got, err)
	}
}

// Writing more than the PWB holds forces reclamation to Value Storage;
// every value must remain readable throughout and afterwards.
func TestReclamationPreservesValues(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	const n = 2000 // * ~50B values >> 64KB PWB
	for i := 0; i < n; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	st := reg(t, s)
	if st.n("pwb.reclaims") == 0 {
		t.Fatal("no reclamation happened despite PWB overflow")
	}
	if st.n("vs.chunks_written") == 0 {
		t.Fatal("nothing migrated to Value Storage")
	}
	for i := 0; i < n; i++ {
		got, err := th.Get(key(i))
		if err != nil || !bytes.Equal(got, value(i)) {
			t.Fatalf("key %d after reclamation: %q, %v", i, got, err)
		}
	}
}

// Only the latest version of a key reaches the SSD (§4.3: append-only PWB
// + well-coupled check cut write traffic).
func TestReclamationSkipsSupersededVersions(t *testing.T) {
	s := small(t, func(o *Options) { o.SVCBytes = 1 << 10 })
	th := s.Thread(0)
	const updates = 3000
	for i := 0; i < updates; i++ {
		if err := th.Put(key(i%5), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := reg(t, s)
	if st.n("pwb.live_migrated") >= updates/2 {
		t.Fatalf("migrated %d of %d versions — superseded values not skipped", st.n("pwb.live_migrated"), updates)
	}
	for i := updates - 5; i < updates; i++ {
		got, err := th.Get(key(i % 5))
		if err != nil || !bytes.Equal(got, value(i)) {
			t.Fatalf("latest version lost for key %d: %q, %v", i%5, got, err)
		}
	}
}

func TestGetServedFromSVCAfterVSRead(t *testing.T) {
	s := small(t, nil)
	fillOnce(t, s) // else the reclaimer hands key 7 to the cache itself
	th := s.Thread(0)
	const n = 2000
	for i := 0; i < n; i++ {
		th.Put(key(i), value(i))
	}
	// Force the PWB empty so reads come from VS.
	drain(t, s)
	before := reg(t, s)
	if _, err := th.Get(key(7)); err != nil {
		t.Fatal(err)
	}
	mid := reg(t, s)
	if mid.n("core.read_path", "source", "vs") == before.n("core.read_path", "source", "vs") {
		t.Skip("value still in PWB; cannot exercise SVC admission")
	}
	// Second read must hit the cache, not the SSD.
	if _, err := th.Get(key(7)); err != nil {
		t.Fatal(err)
	}
	after := reg(t, s)
	if after.n("core.read_path", "source", "svc") != mid.n("core.read_path", "source", "svc")+1 {
		t.Fatalf("second read missed the SVC: %d SVC hits before it, %d after", mid.n("core.read_path", "source", "svc"), after.n("core.read_path", "source", "svc"))
	}
	if after.n("core.read_path", "source", "vs") != mid.n("core.read_path", "source", "vs") {
		t.Fatal("second read went to the SSD")
	}
}

// drain pushes every PWB to Value Storage by forcing a reclaim pass on
// each. reclaimBuffer's pass lock makes the test the ring's scan owner
// for the pass, beside the ring's live passLoop; the pass threads are
// the test's own because that loop owns its own.
func drain(t testing.TB, s *Store) {
	t.Helper()
	rng := sim.NewRNG(0xd7a1)
	for i := range s.pwbs {
		s.reclaimBuffer(s.newThread(i, rng, nil, nil))
	}
	s.em.Barrier()
}

func TestStaleCacheInvalidatedOnUpdate(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	const n = 2000
	for i := 0; i < n; i++ {
		th.Put(key(i), value(i))
	}
	drain(t, s)
	th.Get(key(3)) // admit to SVC
	if err := th.Put(key(3), []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	got, err := th.Get(key(3))
	if err != nil || string(got) != "fresh" {
		t.Fatalf("read after update = %q, %v (stale cache?)", got, err)
	}
}

func TestScanReturnsOrderedRange(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	for i := 0; i < 200; i++ {
		th.Put(key(i), value(i))
	}
	var got []string
	err := th.Scan(key(50), 20, func(kv KV) bool {
		got = append(got, string(kv.Key))
		if !bytes.Equal(kv.Value, value(50+len(got)-1)) {
			t.Fatalf("scan value mismatch at %s", kv.Key)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("scan visited %d", len(got))
	}
	for i, k := range got {
		if k != string(key(50+i)) {
			t.Fatalf("scan[%d] = %s", i, k)
		}
	}
}

// Regression: a counted scan whose rows are deleted between its walk and
// its row reads walks on, so it returns a full page while the store holds
// one. It used to return a short page, which the router's range scan read
// as the end of the range and skipped the rest of it. scanHook deletes the
// odd keys of the page the walk found, every time, before a row is read.
func TestScanPageSurvivesConcurrentDeletes(t *testing.T) {
	s := small(t, nil)
	th, churn := s.Thread(0), s.Thread(1)
	for i := 0; i < 200; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	const page = 19
	t.Cleanup(func() { scanHook = nil })
	for _, start := range []int{60, 120} {
		scanHook = func(*Thread) {
			for k := start + 1; k < start+page; k += 2 {
				if err := churn.deleteSync(key(k), 0); err != nil {
					t.Error(err)
				}
			}
		}
		var got []string
		if err := th.Scan(key(start), page, func(kv KV) bool { got = append(got, string(kv.Key)); return true }); err != nil {
			t.Fatal(err)
		}
		scanHook = nil
		// The page's even keys, then the rows after it the walk moved on to.
		var want []string
		for k := start; len(want) < page; k++ {
			if k < start+page && k%2 != start%2 {
				continue
			}
			want = append(want, string(key(k)))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("scan from %s with its odd keys deleted under it returned %d rows of %d: %q, want %q", key(start), len(got), page, got, want)
		}
	}
}

func TestScanAcrossAllMedia(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	const n = 2000
	for i := 0; i < n; i++ {
		th.Put(key(i), value(i))
	}
	drain(t, s) // everything on SSD
	// Re-write a few (PWB) and read a few (SVC) inside the scan range.
	th.Put(key(102), []byte("pwb-resident"))
	th.Get(key(105))
	var got int
	err := th.Scan(key(100), 10, func(kv KV) bool {
		want := value(100 + got)
		if string(kv.Key) == string(key(102)) {
			want = []byte("pwb-resident")
		}
		if !bytes.Equal(kv.Value, want) {
			t.Fatalf("scan %s = %q", kv.Key, kv.Value)
		}
		got++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("visited %d", got)
	}
}

func TestScanEarlyStop(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	for i := 0; i < 50; i++ {
		th.Put(key(i), value(i))
	}
	n := 0
	th.Scan(nil, 0, func(kv KV) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestConcurrentThreadsDisjointKeys(t *testing.T) {
	s := small(t, func(o *Options) { o.NumThreads = 4 })
	var wg sync.WaitGroup
	const per = 500
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := s.Thread(w)
			for i := 0; i < per; i++ {
				k := []byte(fmt.Sprintf("t%d-%06d", w, i))
				if err := th.Put(k, value(i)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
			for i := 0; i < per; i += 7 {
				k := []byte(fmt.Sprintf("t%d-%06d", w, i))
				got, err := th.Get(k)
				if err != nil || !bytes.Equal(got, value(i)) {
					t.Errorf("get %s: %q, %v", k, got, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 4*per {
		t.Fatalf("Len = %d, want %d", s.Len(), 4*per)
	}
}

func TestConcurrentSameKeyContention(t *testing.T) {
	s := small(t, func(o *Options) { o.NumThreads = 4 })
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := s.Thread(w)
			for i := 0; i < 300; i++ {
				if err := th.Put([]byte("hotkey"), []byte(fmt.Sprintf("w%d-i%d", w, i))); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if _, err := th.Get([]byte("hotkey")); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	got, err := s.Thread(0).Get([]byte("hotkey"))
	if err != nil || len(got) == 0 {
		t.Fatalf("final read: %q, %v", got, err)
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	s := small(t, func(o *Options) { o.NumThreads = 4 })
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := s.Thread(w)
			rng := th.rng
			for i := 0; i < 800; i++ {
				k := key(rng.Intn(200))
				switch rng.Intn(10) {
				case 0:
					th.deleteSync(k, 0)
				case 1, 2:
					if err := th.Scan(k, 10, func(kv KV) bool { return true }); err != nil {
						t.Errorf("scan: %v", err)
						return
					}
				case 3, 4, 5:
					if _, err := th.Get(k); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("get: %v", err)
						return
					}
				default:
					if err := th.Put(k, value(i)); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// Value Storage GC must kick in when chunks run out and keep all data.
func TestGCUnderSpacePressure(t *testing.T) {
	s := small(t, func(o *Options) {
		o.NumSSDs = 1
		o.SSDBytes = 512 << 10 // 32 chunks of 16KB
		o.SVCBytes = 1 << 10
	})
	th := s.Thread(0)
	// Interleave never-updated cold keys with heavily churned hot keys:
	// every chunk ends up a few percent live (cold) and mostly dead
	// (superseded hot versions). Such chunks are never auto-released, so
	// only GC's greedy compaction can reclaim the space.
	pad := make([]byte, 512)
	val := func(v int) []byte {
		return append([]byte(fmt.Sprintf("v%08d-", v)), pad...)
	}
	const hotKeys = 20
	latestHot := make([]int, hotKeys)
	var coldIDs []int
	for round := 0; round < 40; round++ {
		for j := 0; j < 10; j++ {
			id := 10000 + round*10 + j
			coldIDs = append(coldIDs, id)
			if err := th.Put(key(id), val(id)); err != nil {
				t.Fatalf("cold put %d: %v", id, err)
			}
		}
		for j := 0; j < 100; j++ {
			h := j % hotKeys
			v := round*1000 + j
			if err := th.Put(key(h), val(v)); err != nil {
				t.Fatalf("hot put round %d: %v", round, err)
			}
			latestHot[h] = v
		}
	}
	st := reg(t, s)
	if st.n("vs.gc_runs") == 0 {
		t.Fatal("GC never ran under space pressure")
	}
	if st.n("vs.gc_live_moved") == 0 {
		t.Fatal("GC ran but migrated nothing")
	}
	for _, id := range coldIDs {
		got, err := th.Get(key(id))
		if err != nil || !bytes.Equal(got, val(id)) {
			t.Fatalf("cold key %d after GC: err=%v", id, err)
		}
	}
	for h, v := range latestHot {
		got, err := th.Get(key(h))
		if err != nil || !bytes.Equal(got, val(v)) {
			t.Fatalf("hot key %d after GC: err=%v", h, err)
		}
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	th.Put(key(1), value(1))
	if th.Clk.Now() == 0 {
		t.Fatal("put charged no virtual time")
	}
	before := th.Clk.Now()
	th.Get(key(1))
	if th.Clk.Now() <= before {
		t.Fatal("get charged no virtual time")
	}
}

func TestValueTooLargeRejected(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	big := make([]byte, hsit.MaxValueLen+1)
	for name, err := range map[string]error{
		"Put":      th.Put(key(1), big),
		"PutAsync": th.PutTSAsync(key(1), big, 0).Wait(),
		"PutBatch": th.PutBatchTS([]KV{{Key: key(2), Value: value(2)}, {Key: key(1), Value: big}}, nil),
	} {
		if !errors.Is(err, ErrValueTooLarge) {
			t.Errorf("oversized %s = %v, want ErrValueTooLarge", name, err)
		}
	}
}

func TestOpsAfterCloseFail(t *testing.T) {
	opt := Options{NumThreads: 1, PWBBytesPerThread: 64 << 10, HSITCapacity: 1 << 10, NumSSDs: 1, SSDBytes: 1 << 20, ChunkSize: 16 << 10, SVCBytes: 16 << 10}
	s, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Thread(0).Put(key(1), value(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}
	if _, err := s.Thread(0).Get(key(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("get after close: %v", err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}

func TestAblationConfigsWork(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Options)
	}{
		{"NoSVC", func(o *Options) { o.DisableSVC = true }},
		{"NoCombining", func(o *Options) { o.DisableCombining = true }},
		{"SyncVSWrites", func(o *Options) { o.SyncVSWrites = true }},
		{"NoScanSort", func(o *Options) { o.DisableScanSort = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := small(t, tc.mutate)
			th := s.Thread(0)
			const n = 1500
			for i := 0; i < n; i++ {
				if err := th.Put(key(i), value(i)); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}
			for i := 0; i < n; i += 13 {
				got, err := th.Get(key(i))
				if err != nil || !bytes.Equal(got, value(i)) {
					t.Fatalf("get %d: %q, %v", i, got, err)
				}
			}
			cnt := 0
			th.Scan(key(0), 25, func(kv KV) bool { cnt++; return true })
			if cnt != 25 {
				t.Fatalf("scan visited %d", cnt)
			}
		})
	}
}

func TestStatsReporting(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	th.Put(key(1), value(1))
	th.Get(key(1))
	th.Scan(nil, 1, func(kv KV) bool { return true })
	th.deleteSync(key(1), 0)
	st := reg(t, s)
	for _, op := range []string{"put", "get", "scan", "delete"} {
		if n := st.n("core.ops", "op", op); n != 1 {
			t.Errorf("core.ops{op=%s} = %d, want 1", op, n)
		}
	}
	if idx, tbl := st.n("index.space_bytes"), st.n("hsit.space_bytes"); idx < 0 || tbl < 0 {
		t.Fatalf("space: index %d, HSIT %d bytes", idx, tbl)
	}
}

func TestOpenValidation(t *testing.T) {
	bad := []Options{
		{NumSSDs: 65},
		{PWBBytesPerThread: 1024},
		{ChunkSize: 1 << 30, SSDBytes: 1 << 20},
	}
	for i, opt := range bad {
		if _, err := Open(opt); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

// fillOnce gives s's cache the state a store's has after its load: junk
// keys past SVCBytes are written and handed to the cache by reclaim
// passes until it has filled, then deleted. The cache is left empty and
// admits no filler again, so a value nobody read stays on flash alone, as
// a test that counts SSD reads or admissions expects.
func fillOnce(t testing.TB, s *Store) {
	t.Helper()
	if s.cache == nil {
		return
	}
	th := s.Thread(0)
	val := make([]byte, 1024)
	var keys [][]byte
	for i := 0; s.cache.Filling(0); i++ {
		if i == 1<<16 {
			t.Fatalf("the cache never filled: %d fillers", reg(t, s).n("svc.entries"))
		}
		k := []byte(fmt.Sprintf("fill%08d", i))
		if err := th.Put(k, val); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
		if i%16 == 15 {
			drain(t, s)
			s.cache.Sync()
		}
	}
	for _, k := range keys {
		if err := th.deleteSync(k, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.cache.Sync()
}
