package core

import (
	"bytes"
	"fmt"
	"testing"
)

// Force the §4.4 eviction-time sort-and-rewrite and verify it both fires
// and preserves every value.
func TestScanSortRewrite(t *testing.T) {
	s := small(t, func(o *Options) {
		o.NumThreads = 1
		o.NumSSDs = 1
		o.SSDBytes = 32 << 20
		o.SVCBytes = 64 << 10 // tiny cache: scanned chains evict fast
		o.ChunkSize = 64 << 10
	})
	th := s.Thread(0)

	// Scatter prefix-a keys between filler bursts so consecutive a-keys
	// are too far apart on the SSD for extent merging.
	const n = 300
	filler := 0
	for i := 0; i < n; i++ {
		if err := th.Put([]byte(fmt.Sprintf("a%06d", i)), bytes.Repeat([]byte{byte(i)}, 512)); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 12; j++ {
			filler++
			if err := th.Put([]byte(fmt.Sprintf("b%06d", filler)), make([]byte, 512)); err != nil {
				t.Fatal(err)
			}
		}
	}
	drain(t, s)

	// Scan a range twice, then flood the cache so the chain evicts and the
	// rewrite hook runs. Twice is the admission rule, not a workaround: a
	// scan row enters the SVC (and its range's chain) on its second touch,
	// so a range scanned once is never chained and never rewritten.
	scanReads := func() int64 {
		before := s.Stats().VSReads
		count := 0
		if err := th.Scan([]byte("a000050"), 40, func(kv KV) bool { count++; return true }); err != nil {
			t.Fatal(err)
		}
		if count != 40 {
			t.Fatalf("scan visited %d", count)
		}
		return s.Stats().VSReads - before
	}
	first := scanReads()
	if again := scanReads(); again != first {
		t.Fatalf("the second scan read %d extents, the first %d: nothing has moved yet", again, first)
	}
	if st := s.Stats(); st.ScanDeferred != 40 || st.SVC.Entries != 40 {
		t.Fatalf("after two scans of 40 rows: %d rows deferred, %d entries cached; want 40 and 40", st.ScanDeferred, st.SVC.Entries)
	}
	for i := 1; i <= 4000; i++ {
		if _, err := th.Get([]byte(fmt.Sprintf("b%06d", i%filler+1))); err != nil {
			t.Fatal(err)
		}
	}
	if s.cache != nil {
		s.cache.Sync()
	}
	s.em.Barrier()
	if s.Stats().ScanRewrites == 0 {
		t.Fatal("scan-range rewrite never fired")
	}
	second := scanReads()
	if second >= first {
		t.Fatalf("rewrite did not improve locality: %d -> %d reads", first, second)
	}

	// Every value must still be intact after relocation.
	for i := 0; i < n; i++ {
		got, err := th.Get([]byte(fmt.Sprintf("a%06d", i)))
		if err != nil || len(got) != 512 || got[0] != byte(i) {
			t.Fatalf("a-key %d after rewrite: len=%d err=%v", i, len(got), err)
		}
	}
}

func TestAccessors(t *testing.T) {
	s := small(t, nil)
	if s.NumThreads() != 2 {
		t.Fatalf("NumThreads = %d", s.NumThreads())
	}
	if s.Epochs() == nil || s.NVM() == nil || len(s.SSDs()) != 2 {
		t.Fatal("accessors returned zero values")
	}
}
