// Package svc implements the Scan-aware Value Cache of §4.4: a DRAM
// cache of read-hot values with no index of its own — cached values are
// reached directly from HSIT entries (their SVC handle), published lock-free by the
// reading thread.
//
// Cache management runs on a background manager goroutine, keeping it off
// the critical path: foreground threads only (a) publish a freshly
// admitted entry with one CAS and (b) enqueue touch events. The manager
// maintains a 2Q LRU — an inactive list receiving first-time admissions
// and an active list receiving promoted (re-touched) entries — and evicts
// from the inactive tail when DRAM capacity is exceeded.
//
// Scan awareness: values admitted by the same range scan are chained in
// key order. When one member of a chain is evicted, the whole resident
// chain is handed to the engine's rewrite hook, which writes the values
// in that order into a single Value Storage chunk, restoring spatial
// locality for future scans (§4.4 steps 5–6). The cache keeps no keys:
// a chain is in key order because the scan linked it in key order and
// unlinking a member keeps its neighbours' order.
//
// Entry lifetime: handles embed a per-slot generation, so a stale handle
// read from HSIT after the slot was recycled simply fails validation.
// (The paper frees entries via epoch-based reclamation; Go's GC plus
// generation checks provide the same safety for the DRAM-resident part.)
package svc

import (
	"sync"
	"sync/atomic"
)

// Entry is one cached value. Value, HSITIdx, Ver are immutable after
// creation; list and chain links are owned by the manager goroutine.
type Entry struct {
	HSITIdx uint64
	Value   []byte

	// Ver is the caller's opaque currency token (the HSIT entry's
	// publish version observed when the value was read). Lookup hands it
	// back so readers can check the entry is still current: a cached
	// value is valid only while no publish has happened since — a check
	// the forward pointer itself cannot provide, because recycled
	// offsets can make a stale pointer bit-identical to the current one.
	Ver uint64

	slot uint32
	gen  uint32

	// Manager-owned state.
	state      int8 // 0 = not resident, 1 = inactive, 2 = active
	prev, next *Entry
	chainPrev  *Entry
	chainNext  *Entry
}

// Handle returns the value published as the HSIT entry's SVC handle.
func (e *Entry) Handle() uint64 { return uint64(e.gen)<<32 | uint64(e.slot+1) }

func (e *Entry) size() int64 { return int64(len(e.Value) + 96) }

// EvictedChain is passed to the rewrite hook: the resident members of a
// scan chain, in the order LinkChain was given them (the scan's key
// order), at the moment one of them was evicted.
type EvictedChain struct {
	Entries []*Entry
}

// Config parameterizes the cache.
type Config struct {
	// CapacityBytes bounds resident value+overhead bytes.
	CapacityBytes int64
	// OnScanEvict, if set, receives the resident chain whenever a
	// chained entry is evicted. It runs on the manager goroutine.
	OnScanEvict func(chain EvictedChain)
	// Unpublish must CAS HSIT[idx]'s SVC handle from handle to 0; it returns
	// whether this call cleared it. Wired to hsit.Table.CasSVC.
	Unpublish func(hsitIdx, handle uint64) bool
}

const (
	// activeFraction is the share of capacity the active list may hold
	// before demotion: the usual 2Q split.
	activeFraction = 2.0 / 3.0
	// queueLen sizes the manager's event queue.
	queueLen = 4096
)

type evKind uint8

const (
	evAdd evKind = iota
	evTouch
	evRemove
	evChain
	evSync
)

type event struct {
	kind    evKind
	entry   *Entry
	handles []uint64
	done    chan struct{}
}

// Cache is the Scan-aware Value Cache.
type Cache struct {
	cfg Config

	mu    sync.Mutex
	table []*Entry // slot -> resident entry (nil when free); guarded by mu
	gens  []uint32
	frees []uint32

	events chan event
	wg     sync.WaitGroup
	closed atomic.Bool

	bytes      atomic.Int64
	entries    atomic.Int64
	evictions  atomic.Int64
	promotions atomic.Int64
	rewrites   atomic.Int64
	touchDrop  atomic.Int64

	// Manager-owned 2Q lists.
	active, inactive lruList
}

// New creates the cache and starts its manager goroutine.
func New(cfg Config) *Cache {
	if cfg.CapacityBytes <= 0 {
		panic("svc: non-positive capacity")
	}
	if cfg.Unpublish == nil {
		panic("svc: Unpublish hook required")
	}
	c := &Cache{cfg: cfg, events: make(chan event, queueLen)}
	c.wg.Add(1)
	go c.manager()
	return c
}

// Close drains the manager and stops it. The cache must not be used
// afterwards.
func (c *Cache) Close() {
	if c.closed.Swap(true) {
		return
	}
	close(c.events)
	c.wg.Wait()
}

// Lookup resolves a handle read from an HSIT entry. It returns the entry's
// value and admission version if the handle is still current, and
// enqueues a touch event for 2Q promotion. Callers MUST compare ver with
// the HSIT entry's current publish version before using the value: a
// handle can transiently point at a superseded value (an in-flight
// admission that lost its race, or a GC/rewrite relocation) and only the
// version check detects it. The returned slice is immutable — callers
// must copy before handing it to users.
func (c *Cache) Lookup(hsitIdx, handle uint64) (val []byte, ver uint64, ok bool) {
	e := c.resolve(hsitIdx, handle)
	if e == nil {
		return nil, 0, false
	}
	c.post(event{kind: evTouch, entry: e}, false)
	return e.Value, e.Ver, true
}

func (c *Cache) resolve(hsitIdx, handle uint64) *Entry {
	slot := uint32(handle&0xffffffff) - 1
	gen := uint32(handle >> 32)
	c.mu.Lock()
	defer c.mu.Unlock()
	if int(slot) >= len(c.table) {
		return nil
	}
	e := c.table[slot]
	if e == nil || e.gen != gen || e.HSITIdx != hsitIdx {
		return nil
	}
	return e
}

// Admit allocates an entry holding a copy of value, the entry's current
// value under publish version ver (opaque to the cache; readers compare
// it on Lookup). The caller must then publish e.Handle() in the HSIT entry
// (CAS from 0) and call Published on success or AbortAdmit if it lost the
// race (§4.4: published atomically). The key is not kept — nothing reads
// it; the parameter stays because benchmark/ladder.go passes one.
func (c *Cache) Admit(hsitIdx, ver uint64, _, value []byte) *Entry {
	c.mu.Lock()
	var slot uint32
	if n := len(c.frees); n > 0 {
		slot = c.frees[n-1]
		c.frees = c.frees[:n-1]
	} else {
		slot = uint32(len(c.table))
		c.table = append(c.table, nil)
		c.gens = append(c.gens, 0)
	}
	e := &Entry{
		HSITIdx: hsitIdx,
		Value:   append([]byte(nil), value...),
		Ver:     ver,
		slot:    slot,
		gen:     c.gens[slot],
	}
	c.table[slot] = e
	c.mu.Unlock()
	return e
}

// Published enqueues the admitted entry for LRU bookkeeping.
func (c *Cache) Published(e *Entry) {
	c.bytes.Add(e.size())
	c.entries.Add(1)
	c.post(event{kind: evAdd, entry: e}, true)
}

// Backlogged reports that the manager's event queue is more than half
// full. Published and Invalidate wait for a slot, so a caller that must
// not wait — a reclaim pass holding its ring's lock — asks first and
// skips its admission.
func (c *Cache) Backlogged() bool { return len(c.events) > cap(c.events)/2 }

// AbortAdmit releases an entry whose HSIT publication lost a race.
func (c *Cache) AbortAdmit(e *Entry) {
	c.freeSlot(e)
}

// Invalidate removes the entry for handle (value deleted or superseded).
func (c *Cache) Invalidate(hsitIdx, handle uint64) {
	if e := c.resolve(hsitIdx, handle); e != nil {
		c.post(event{kind: evRemove, entry: e}, true)
	}
}

// LinkChain records that the entries behind handles were admitted by one
// scan, in key order, forming the chain used for eviction-time rewrite.
func (c *Cache) LinkChain(handles []uint64) {
	if len(handles) < 2 {
		return
	}
	c.post(event{kind: evChain, handles: handles}, true)
}

// Sync blocks until every event enqueued before it has been processed.
func (c *Cache) Sync() {
	done := make(chan struct{})
	if c.post(event{kind: evSync, done: done}, true) {
		<-done
	}
}

// post enqueues an event; when must is false the event may be dropped
// under pressure (touches are advisory). Returns whether enqueued.
func (c *Cache) post(ev event, must bool) bool {
	if c.closed.Load() {
		return false
	}
	defer func() { recover() }() // racing Close: dropping is acceptable
	if must {
		c.events <- ev
		return true
	}
	select {
	case c.events <- ev:
		return true
	default:
		c.touchDrop.Add(1)
		return false
	}
}

func (c *Cache) freeSlot(e *Entry) {
	c.mu.Lock()
	if int(e.slot) < len(c.table) && c.table[e.slot] == e {
		c.table[e.slot] = nil
		c.gens[e.slot]++
		c.frees = append(c.frees, e.slot)
	}
	c.mu.Unlock()
}

// Stats is a snapshot of cache counters.
type Stats struct {
	Bytes         int64
	Entries       int64
	Evictions     int64
	Promotions    int64 // 2Q inactive -> active moves
	ChainRewrites int64
	TouchDrops    int64
}

// Stats returns the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Bytes:         c.bytes.Load(),
		Entries:       c.entries.Load(),
		Evictions:     c.evictions.Load(),
		Promotions:    c.promotions.Load(),
		ChainRewrites: c.rewrites.Load(),
		TouchDrops:    c.touchDrop.Load(),
	}
}

// ---- manager goroutine ----

type lruList struct {
	head, tail *Entry
	bytes      int64
}

func (l *lruList) pushHead(e *Entry) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
	l.bytes += e.size()
}

func (l *lruList) remove(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	l.bytes -= e.size()
}

func (c *Cache) manager() {
	defer c.wg.Done()
	for ev := range c.events {
		switch ev.kind {
		case evAdd:
			if ev.entry.state == 0 {
				ev.entry.state = 1
				c.inactive.pushHead(ev.entry)
				c.rebalance()
			}
		case evTouch:
			c.touch(ev.entry)
		case evRemove:
			c.drop(ev.entry, true)
		case evChain:
			c.link(ev.handles)
		case evSync:
			close(ev.done)
		}
	}
}

// touch applies 2Q promotion: a second access moves an inactive entry to
// the active list; an active entry refreshes to the head.
func (c *Cache) touch(e *Entry) {
	switch e.state {
	case 1:
		c.inactive.remove(e)
		e.state = 2
		c.promotions.Add(1)
		c.active.pushHead(e)
		c.rebalance()
	case 2:
		c.active.remove(e)
		c.active.pushHead(e)
	}
}

// rebalance demotes the active tail when the active list outgrows its
// share, then evicts from the inactive tail while over capacity.
func (c *Cache) rebalance() {
	activeCap := int64(float64(c.cfg.CapacityBytes) * activeFraction)
	for c.active.bytes > activeCap && c.active.tail != nil {
		e := c.active.tail
		c.active.remove(e)
		e.state = 1
		c.inactive.pushHead(e)
	}
	for c.active.bytes+c.inactive.bytes > c.cfg.CapacityBytes {
		victim := c.inactive.tail
		if victim == nil {
			victim = c.active.tail
		}
		if victim == nil {
			return
		}
		c.evict(victim)
	}
}

// evict removes victim from the cache. If it belongs to a scan chain the
// resident chain is handed to the rewrite hook first (§4.4 steps 5-6).
func (c *Cache) evict(victim *Entry) {
	c.evictions.Add(1)
	if (victim.chainPrev != nil || victim.chainNext != nil) && c.cfg.OnScanEvict != nil {
		chain := c.collectChain(victim)
		if len(chain) > 1 {
			c.rewrites.Add(1)
			c.cfg.OnScanEvict(EvictedChain{Entries: chain})
		}
		// The chain is consumed: one rewrite per scan chain.
		for _, e := range chain {
			c.unlinkChain(e)
		}
	}
	c.drop(victim, true)
}

// drop removes e from its list, unpublishes it from HSIT, and frees its
// slot.
func (c *Cache) drop(e *Entry, unpublish bool) {
	switch e.state {
	case 1:
		c.inactive.remove(e)
	case 2:
		c.active.remove(e)
	default:
		return // already gone (duplicate remove events are benign)
	}
	e.state = 0
	c.unlinkChain(e)
	if unpublish {
		c.cfg.Unpublish(e.HSITIdx, e.Handle())
	}
	c.bytes.Add(-e.size())
	c.entries.Add(-1)
	c.freeSlot(e)
}

func (c *Cache) unlinkChain(e *Entry) {
	if e.chainPrev != nil {
		e.chainPrev.chainNext = e.chainNext
	}
	if e.chainNext != nil {
		e.chainNext.chainPrev = e.chainPrev
	}
	e.chainPrev, e.chainNext = nil, nil
}

// link wires the chain in the order given (key order from the scan).
func (c *Cache) link(handles []uint64) {
	var prev *Entry
	for _, h := range handles {
		slot := uint32(h&0xffffffff) - 1
		gen := uint32(h >> 32)
		c.mu.Lock()
		var e *Entry
		if int(slot) < len(c.table) {
			e = c.table[slot]
		}
		c.mu.Unlock()
		if e == nil || e.gen != gen || e.state == 0 {
			continue
		}
		c.unlinkChain(e) // leave any previous chain
		if prev != nil {
			prev.chainNext = e
			e.chainPrev = prev
		}
		prev = e
	}
}

// collectChain walks to the chain head then gathers resident members in
// order. No lookup is needed to find same-range values — the chain was
// formed during the scan (§4.4).
func (c *Cache) collectChain(e *Entry) []*Entry {
	head := e
	for head.chainPrev != nil {
		head = head.chainPrev
	}
	var out []*Entry
	for cur := head; cur != nil; cur = cur.chainNext {
		if cur.state != 0 {
			out = append(out, cur)
		}
	}
	return out
}
