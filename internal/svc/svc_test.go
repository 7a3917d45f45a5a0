package svc

import (
	"fmt"
	"sync"
	"testing"
)

// fakeHSIT emulates the word-1 publication protocol.
type fakeHSIT struct {
	mu    sync.Mutex
	words map[uint64]uint64
}

func newFakeHSIT() *fakeHSIT { return &fakeHSIT{words: map[uint64]uint64{}} }

func (f *fakeHSIT) cas(idx, old, new uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.words[idx] != old {
		return false
	}
	f.words[idx] = new
	return true
}

func (f *fakeHSIT) load(idx uint64) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.words[idx]
}

func newCache(t *testing.T, capacity int64, onEvict func(EvictedChain)) (*Cache, *fakeHSIT) {
	t.Helper()
	h := newFakeHSIT()
	c := New(Config{
		CapacityBytes: capacity,
		OnScanEvict:   onEvict,
		Unpublish:     func(idx, handle uint64) bool { return f_cas(h, idx, handle) },
	})
	t.Cleanup(c.Close)
	return c, h
}

func f_cas(h *fakeHSIT, idx, handle uint64) bool { return h.cas(idx, handle, 0) }

// verOf is the admission version token the admit helper records for idx
// (opaque to the cache; it only round-trips through Lookup).
func verOf(idx uint64) uint64 { return idx + 1000 }

// admit publishes an entry the way the engine does. The admission
// location is derived from idx so tests can verify the round trip.
func admit(t *testing.T, c *Cache, h *fakeHSIT, idx uint64, val string) *Entry {
	t.Helper()
	e := c.Admit(idx, verOf(idx), nil, []byte(val))
	if !h.cas(idx, 0, e.Handle()) {
		c.AbortAdmit(e)
		t.Fatalf("publish race for %d", idx)
	}
	c.Published(e)
	return e
}

func TestAdmitLookup(t *testing.T) {
	c, h := newCache(t, 1<<20, nil)
	e := admit(t, c, h, 1, "v1")
	got, ver, ok := c.Lookup(1, e.Handle())
	if !ok || string(got) != "v1" {
		t.Fatalf("Lookup = %q, %v", got, ok)
	}
	if ver != verOf(1) {
		t.Fatalf("Lookup ver = %d, want %d", ver, verOf(1))
	}
	c.Sync()
	st := c.Stats()
	if st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLookupRejectsStaleHandle(t *testing.T) {
	c, h := newCache(t, 1<<20, nil)
	e := admit(t, c, h, 1, "v1")
	handle := e.Handle()
	// Remove and recycle the slot.
	c.Invalidate(1, handle)
	c.Sync()
	e2 := admit(t, c, h, 2, "v2")
	if e2.slot != e.slot {
		t.Skip("slot not recycled; cannot test generation check")
	}
	if _, _, ok := c.Lookup(1, handle); ok {
		t.Fatal("stale handle resolved after slot recycle")
	}
	if _, _, ok := c.Lookup(2, e2.Handle()); !ok {
		t.Fatal("fresh handle failed")
	}
}

func TestLookupRejectsWrongHSITIdx(t *testing.T) {
	c, h := newCache(t, 1<<20, nil)
	e := admit(t, c, h, 5, "v")
	if _, _, ok := c.Lookup(6, e.Handle()); ok {
		t.Fatal("lookup with mismatched HSIT index succeeded")
	}
}

func TestAbortAdmitFreesSlot(t *testing.T) {
	c, _ := newCache(t, 1<<20, nil)
	e := c.Admit(1, verOf(1), nil, []byte("v"))
	c.AbortAdmit(e)
	c.Sync()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats after abort = %+v", st)
	}
	if _, _, ok := c.Lookup(1, e.Handle()); ok {
		t.Fatal("aborted entry resolvable")
	}
}

func TestEvictionAtCapacityUnpublishes(t *testing.T) {
	// Each entry is 96 + 4 = 100 bytes; capacity fits 5.
	c, h := newCache(t, 512, nil)
	var entries []*Entry
	for i := uint64(0); i < 20; i++ {
		entries = append(entries, admit(t, c, h, i, "vvvv"))
	}
	c.Sync()
	st := c.Stats()
	if st.Bytes > 512 {
		t.Fatalf("over capacity: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions at capacity")
	}
	// Early entries must be unpublished from HSIT.
	if h.load(0) != 0 {
		t.Fatal("evicted entry still published")
	}
	// The most recent entry must survive.
	last := entries[len(entries)-1]
	if _, _, ok := c.Lookup(last.HSITIdx, last.Handle()); !ok {
		t.Fatal("most recent entry evicted")
	}
}

func Test2QPromotionProtectsHotEntries(t *testing.T) {
	c, h := newCache(t, 1200, nil) // ~11 entries
	hot := admit(t, c, h, 999, "dddd")
	c.Sync()
	// Touch hot so it promotes to the active list.
	c.Lookup(999, hot.Handle())
	c.Sync()
	// Flood with one-touch-wonder entries.
	for i := uint64(0); i < 100; i++ {
		admit(t, c, h, i, "dddd")
	}
	c.Sync()
	if _, _, ok := c.Lookup(999, hot.Handle()); !ok {
		t.Fatal("promoted hot entry was evicted by cold scan flood")
	}
}

func TestInvalidateRemoves(t *testing.T) {
	c, h := newCache(t, 1<<20, nil)
	e := admit(t, c, h, 1, "v")
	// Engine clears HSIT first, then invalidates the cache.
	h.cas(1, e.Handle(), 0)
	c.Invalidate(1, e.Handle())
	c.Sync()
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d after invalidate", st.Entries)
	}
}

func TestScanChainRewriteOnEviction(t *testing.T) {
	var got [][]uint64
	var mu sync.Mutex
	c, h := newCache(t, 700, func(chain EvictedChain) {
		mu.Lock()
		got = append(got, chainIdxs(chain.Entries))
		mu.Unlock()
	})
	// Admit five values from one scan and chain them, in HSIT index order
	// (the stand-in for the scan's key order).
	var handles []uint64
	for i := 0; i < 5; i++ {
		e := admit(t, c, h, uint64(i), "vvvv")
		handles = append(handles, e.Handle())
	}
	c.LinkChain(handles)
	c.Sync()
	// Flood until a chained entry is evicted.
	for i := uint64(100); i < 130; i++ {
		admit(t, c, h, i, "vvvv")
	}
	c.Sync()
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("chain eviction produced no rewrite")
	}
	if len(got) > 1 {
		t.Fatalf("chain rewritten %d times, want once", len(got))
	}
	idxs := got[0]
	if len(idxs) < 2 {
		t.Fatalf("rewrite chain too short: %v", idxs)
	}
	for i := 1; i < len(idxs); i++ {
		if idxs[i-1] >= idxs[i] {
			t.Fatalf("chain not in link order: %v", idxs)
		}
	}
}

func chainIdxs(es []*Entry) []uint64 {
	var out []uint64
	for _, e := range es {
		out = append(out, e.HSITIdx)
	}
	return out
}

// The cache keeps no keys, so the rewrite hook gets key order only if a
// chain stays in the order it was linked in: across members dropped from
// the middle and the ends, and across a later scan that re-links some
// members (and admits new ones between them) into a chain of its own.
func TestChainKeepsLinkOrder(t *testing.T) {
	c, h := newCache(t, 1<<20, func(EvictedChain) {})
	entries := map[uint64]*Entry{}
	link := func(idxs ...uint64) {
		var handles []uint64
		for _, idx := range idxs {
			if entries[idx] == nil {
				entries[idx] = admit(t, c, h, idx, "vvvv")
			}
			handles = append(handles, entries[idx].Handle())
		}
		c.LinkChain(handles)
		c.Sync()
	}
	drop := func(idxs ...uint64) {
		for _, idx := range idxs {
			c.Invalidate(idx, entries[idx].Handle())
			delete(entries, idx)
		}
		c.Sync()
	}
	// collectChain is the manager's; after Sync the manager is idle and
	// nothing else posts, so the test may walk the links itself.
	chainOf := func(idx uint64) []uint64 { return chainIdxs(c.collectChain(entries[idx])) }
	expect := func(idx uint64, want ...uint64) {
		t.Helper()
		if got := chainOf(idx); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("chain through %d = %v, want %v", idx, got, want)
		}
	}

	link(10, 20, 30, 40, 50, 60, 70, 80)
	drop(10, 40, 80) // head, middle, tail
	expect(50, 20, 30, 50, 60, 70)
	// A second scan overlaps the first: it takes 30 and 60 out of the old
	// chain into its own, with new rows before, between and after them.
	link(25, 30, 45, 60, 65)
	expect(30, 25, 30, 45, 60, 65)
	expect(50, 20, 50, 70)
	drop(45, 50)
	expect(60, 25, 30, 60, 65)
	expect(70, 20, 70)
	// Re-linking a whole chain in the same order is the same chain.
	link(25, 30, 60, 65)
	expect(25, 25, 30, 60, 65)
}

func TestChainConsumedAfterRewrite(t *testing.T) {
	rewrites := 0
	c, h := newCache(t, 400, func(chain EvictedChain) { rewrites++ })
	var handles []uint64
	for i := 0; i < 3; i++ {
		e := admit(t, c, h, uint64(i), "vv")
		handles = append(handles, e.Handle())
	}
	c.LinkChain(handles)
	c.Sync()
	for i := uint64(10); i < 40; i++ {
		admit(t, c, h, i, "vv")
	}
	c.Sync()
	if rewrites > 1 {
		t.Fatalf("chain rewritten %d times", rewrites)
	}
	if st := c.Stats(); st.ChainRewrites != int64(rewrites) {
		t.Fatalf("rewrite counter %d != %d", st.ChainRewrites, rewrites)
	}
}

func TestConcurrentLookupsAndAdmissions(t *testing.T) {
	c, h := newCache(t, 1<<18, nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				idx := uint64(w*1000 + i)
				e := c.Admit(idx, verOf(idx), nil, []byte("val"))
				if h.cas(idx, 0, e.Handle()) {
					c.Published(e)
					if v, loc, ok := c.Lookup(idx, e.Handle()); ok && (string(v) != "val" || loc != verOf(idx)) {
						t.Errorf("bad value %q loc %d", v, loc)
					}
				} else {
					c.AbortAdmit(e)
				}
			}
		}(w)
	}
	wg.Wait()
	c.Sync()
	if st := c.Stats(); st.Bytes > 1<<18 {
		t.Fatalf("over capacity after concurrency: %+v", st)
	}
}

func TestCloseIsIdempotentAndSafe(t *testing.T) {
	h := newFakeHSIT()
	c := New(Config{
		CapacityBytes: 1 << 16,
		Unpublish:     func(idx, handle uint64) bool { return h.cas(idx, handle, 0) },
	})
	c.Close()
	c.Close()
	// Posting after close must not panic or block.
	c.Invalidate(1, 42)
	c.Sync()
}
