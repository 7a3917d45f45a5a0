package svc

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/epoch"
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
	return newCacheFrom(t, Config{CapacityBytes: capacity, OnScanEvict: onEvict})
}

// newCacheFrom builds a cache from cfg, its Unpublish wired to a fresh
// fake HSIT.
func newCacheFrom(t *testing.T, cfg Config) (*Cache, *fakeHSIT) {
	t.Helper()
	h := newFakeHSIT()
	cfg.Unpublish = func(idx, handle uint64) bool { return h.cas(idx, handle, 0) }
	c := New(cfg)
	t.Cleanup(c.Close)
	return c, h
}

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

// retract unpublishes idx's entry and drops it, the way a writer that
// supersedes the value does, and waits for the manager to have done so.
func retract(c *Cache, h *fakeHSIT, idx uint64, e *Entry) {
	h.cas(idx, e.Handle(), 0)
	c.Invalidate(idx, e.Handle())
	c.Sync()
}

// TestReuseWaitsTwoEpochs: a dropped entry is reused — struct and buffer —
// only once the global epoch is two past its drop (§5.4). A reader that
// resolved the entry before the drop holds its bytes for as long as its
// critical section lasts: an admission meanwhile must get another entry,
// and the reader's slice must keep the bytes it read.
func TestReuseWaitsTwoEpochs(t *testing.T) {
	em := epoch.NewManager()
	c, h := newCacheFrom(t, Config{CapacityBytes: 1 << 20, Epochs: em})
	reader := em.Register()
	a := admit(t, c, h, 1, "first")
	reader.Enter()
	v, _, ok := c.Lookup(1, a.Handle())
	if !ok {
		t.Fatal("lookup failed")
	}
	stale := a.Handle()
	retract(c, h, 1, a)
	for i := 0; i < 4; i++ {
		em.Collect() // the pinned reader lets the epoch move once at most
	}
	if b := admit(t, c, h, 2, "other"); b == a {
		t.Fatal("an entry was reused while a reader inside its epoch could hold it")
	}
	if string(v) != "first" {
		t.Fatalf("the reader's bytes became %q under it", v)
	}
	reader.Exit()
	em.Collect()
	em.Collect()
	d := admit(t, c, h, 3, "third")
	if d != a {
		t.Fatal("the dropped entry was not reused two epochs after its drop")
	}
	if got, _, ok := c.Lookup(3, d.Handle()); !ok || string(got) != "third" {
		t.Fatalf("reused entry reads %q, %v", got, ok)
	}
	if _, _, ok := c.Lookup(1, stale); ok {
		t.Fatal("the dropped incarnation's handle still resolves")
	}
	if st := c.Stats(); st.Reuses != 1 {
		t.Fatalf("Reuses = %d, want 1", st.Reuses)
	}
}

// TestStaleEventSparesReusedEntry: a touch or remove queued for an entry's
// earlier incarnation reaches the manager only after the entry was
// dropped and reused for another key. It names the old handle, so the
// manager leaves the new incarnation alone: not promoted, still resident
// and published.
func TestStaleEventSparesReusedEntry(t *testing.T) {
	em := epoch.NewManager()
	c, h := newCacheFrom(t, Config{CapacityBytes: 1 << 20, Epochs: em})
	a := admit(t, c, h, 1, "old")
	stale := a.Handle()
	retract(c, h, 1, a)
	em.Collect()
	em.Collect()
	b := admit(t, c, h, 2, "new")
	if b != a {
		t.Fatal("the dropped entry was not reused")
	}
	c.Sync()
	c.post(event{kind: evTouch, entry: a, handle: stale}, true)
	c.post(event{kind: evRemove, entry: a, handle: stale}, true)
	c.Sync()
	if got, _, ok := c.Lookup(2, b.Handle()); !ok || string(got) != "new" {
		t.Fatalf("reused entry after stale events: %q, %v", got, ok)
	}
	if h.load(2) != b.Handle() {
		t.Fatal("a stale remove unpublished the reused entry")
	}
	if st := c.Stats(); st.Entries != 1 || st.Promotions != 0 {
		t.Fatalf("stats after stale events = %+v, want 1 entry, 0 promotions", st)
	}
}

// TestNoEpochSourceNeverReuses: without an epoch source no dropped entry is
// known safe, so every admission gets a fresh one.
func TestNoEpochSourceNeverReuses(t *testing.T) {
	c, h := newCache(t, 1<<20, nil)
	a := admit(t, c, h, 1, "v")
	retract(c, h, 1, a)
	if b := admit(t, c, h, 2, "w"); b == a {
		t.Fatal("a cache without an epoch source reused an entry")
	}
}

// TestReuseKeepsBufferWithinBounds: a reused entry keeps its buffer for a
// value that fits it and is at least half its size, and takes a new one
// otherwise; either way it holds exactly the admitted bytes.
func TestReuseKeepsBufferWithinBounds(t *testing.T) {
	em := epoch.NewManager()
	c, h := newCacheFrom(t, Config{CapacityBytes: 1 << 20, Epochs: em})
	for i, n := range []int{100, 60, 100, 30} {
		idx := uint64(i + 1)
		e := c.Admit(idx, verOf(idx), nil, bytes.Repeat([]byte{byte(i)}, n))
		if !h.cas(idx, 0, e.Handle()) {
			t.Fatal("publish race")
		}
		c.Published(e)
		if len(e.Value) != n || e.Value[n-1] != byte(i) || cap(e.Value) > 2*n {
			t.Fatalf("admission %d: len %d cap %d for a %d-byte value", i, len(e.Value), cap(e.Value), n)
		}
		retract(c, h, idx, e)
		em.Collect()
		em.Collect()
	}
}

// TestSparesHoldAtMostCapacity: dropped entries waiting for reuse hold no
// more bytes than the cache may keep resident; beyond that a drop is left
// to the garbage collector.
func TestSparesHoldAtMostCapacity(t *testing.T) {
	const capacity = 1000
	c, h := newCacheFrom(t, Config{CapacityBytes: capacity, Epochs: epoch.NewManager()})
	for idx := uint64(1); idx <= 20; idx++ {
		retract(c, h, idx, admit(t, c, h, idx, string(make([]byte, 200))))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spareBytes > capacity || c.spareN != capacity/(200+96) {
		t.Fatalf("%d spares hold %d bytes; capacity %d", c.spareN, c.spareBytes, capacity)
	}
}
