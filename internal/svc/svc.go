// Package svc implements the Scan-aware Value Cache of §4.4: a DRAM
// cache of read-hot values with no index of its own — cached values are
// reached directly from HSIT entries (their SVC handle), published lock-free by the
// reading thread.
//
// Cache management runs on a background manager goroutine, keeping it off
// the critical path: foreground threads only (a) publish a freshly
// admitted entry with one CAS and (b) enqueue touch events. The manager
// maintains a 2Q LRU — an inactive (probation) list receiving first-time
// admissions and an active (protected) list receiving entries a point
// read touched again, or admitted Protected — and evicts from the inactive tail when DRAM
// capacity is exceeded. A scan's touch (LookupScan) only refreshes an
// entry on probation: a scan reads every row of its range whether or not
// anybody wants it, so it never decides what is protected.
//
// A cold cache fills from whatever passes through DRAM: until it first
// reaches capacity (Filling; sticky, so a cache that has filled once
// never refills from free room an overwrite left), the engine admits
// values no read asked for as fillers. A filler's first point-read hit is
// its admission — it is refreshed on probation, not promoted — and
// Invalidate reports whether any point read hit it, so an overwrite of a
// filler nobody read earns the new value nothing.
//
// Scan awareness: values admitted by the same range scan are chained in
// key order. When one member of a chain is evicted, the whole resident
// chain is handed to the engine's rewrite hook, which writes the values
// in that order into a single Value Storage chunk, restoring spatial
// locality for future scans (§4.4 steps 5–6). The cache keeps no keys:
// a chain is in key order because the scan linked it in key order and
// unlinking a member keeps its neighbours' order.
//
// Entry lifetime (§5.4): handles embed a per-slot generation, so a stale
// handle read from HSIT after its entry left the table fails validation.
// An entry leaves the table when the manager drops it (evict, invalidate,
// retract) or its admission is aborted. It is then stamped with the
// global epoch and kept, struct and value buffer together, and a later
// Admit reuses it once the epoch is two past the stamp: the two-epoch
// rule, so no reader that resolved the old incarnation inside its
// critical section can still be reading its bytes. Events queued for the
// manager name the incarnation (its handle), so a late touch or remove
// never acts on a reused entry. A cache without an epoch source keeps no
// entry, since none is ever known safe, and allocates every admission.
package svc

import (
	"sync"
	"sync/atomic"

	"repro/internal/epoch"
)

// Entry is one cached value. Value, HSITIdx, Ver are immutable for one
// incarnation (from Admit until the entry leaves the table); list and
// chain links are owned by the manager goroutine.
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

	// Protected, set between Admit and Published, admits the entry to the
	// active list instead of probation: a value the caller knows was
	// protected before (an overwritten key's new value).
	Protected bool
	// Filler, set between Admit and Published, marks a value no read
	// asked for, admitted while the cache was Filling: on probation, and
	// its first point-read hit only refreshes it there.
	Filler bool

	// hit is set by a point read's Lookup of this incarnation; guarded by
	// mu. Invalidate reports it for a filler.
	hit bool

	slot uint32
	gen  uint32

	// live is the incarnation's handle while it is in the table, 0 once
	// it has left: the manager's test that an event is not stale.
	live atomic.Uint64
	// retired is the epoch the entry left the table in; guarded by mu.
	retired uint64

	// Manager-owned state.
	state      int8 // 0 = not resident, 1 = inactive, 2 = active
	earned     bool // a filler whose first point-read hit has been applied
	prev, next *Entry
	chainPrev  *Entry
	chainNext  *Entry
}

// Handle returns the value published as the HSIT entry's SVC handle.
func (e *Entry) Handle() uint64 { return uint64(e.gen)<<32 | uint64(e.slot+1) }

func (e *Entry) size() int64 { return int64(len(e.Value) + entryOverhead) }

// entryOverhead is what an entry costs the capacity beside its value.
const entryOverhead = 96

// EvictedChain is passed to the rewrite hook: the resident members of a
// scan chain, in the order LinkChain was given them (the scan's key
// order), at the moment one of them was evicted. The entries are valid
// until the hook returns: then the evicted one is dropped, and may be
// reused.
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
	// Epochs, if set, is the epoch source every Lookup caller's critical
	// section registers with; it lets entries be reused. Without it
	// every admission allocates.
	Epochs *epoch.Manager
}

const (
	// activeFraction is the share of capacity the active list may hold
	// before demotion: the usual 2Q split.
	activeFraction = 2.0 / 3.0
	// queueLen sizes the manager's event queue.
	queueLen = 4096
	// spareLen bounds the entries kept for reuse, as CapacityBytes bounds
	// their bytes: far more than the drops of the two epochs an entry
	// waits, which a store's threads advance every few dozen operations.
	spareLen = 4096
)

type evKind uint8

const (
	evAdd evKind = iota
	evTouch
	evScanTouch
	evRemove
	evChain
	evSync
)

type event struct {
	kind    evKind
	entry   *Entry
	handle  uint64 // the incarnation of entry the event is for
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
	// spare is a ring of entries that left the table, oldest first at
	// spareAt, spareN of them holding spareBytes; guarded by mu. Its
	// length is 0 without an epoch source.
	spare           []*Entry
	spareAt, spareN int
	spareBytes      int64

	events chan event
	wg     sync.WaitGroup
	closed atomic.Bool
	// filled is set, for good, when the cache first reaches capacity:
	// an admission Filling found would not fit, or the manager's first
	// eviction.
	filled atomic.Bool

	bytes      atomic.Int64
	entries    atomic.Int64
	evictions  atomic.Int64
	promotions atomic.Int64
	rewrites   atomic.Int64
	touchDrop  atomic.Int64
	reuses     atomic.Int64

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
	if cfg.Epochs != nil {
		c.spare = make([]*Entry, spareLen)
	}
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

// Lookup resolves a handle read from an HSIT entry for a point read. It
// returns the entry's value and admission version if the handle is still
// current, and enqueues a touch event: 2Q promotion of an entry on
// probation, a refresh of a protected one. Callers MUST compare ver with
// the HSIT entry's current publish version before using the value: a
// handle can transiently point at a superseded value (an in-flight
// admission that lost its race, or a GC/rewrite relocation) and only the
// version check detects it. The returned slice is immutable and is the
// entry's own buffer, which a later admission reuses: the caller must
// call Lookup inside a critical section of the cache's epoch source, copy
// the bytes before handing them to users, and not keep the slice past
// that critical section.
func (c *Cache) Lookup(hsitIdx, handle uint64) (val []byte, ver uint64, ok bool) {
	return c.lookup(hsitIdx, handle, evTouch)
}

// LookupScan is Lookup for a scan's row. Its touch moves an entry on
// probation to the head of probation and never promotes it; a protected
// entry stays where it is.
func (c *Cache) LookupScan(hsitIdx, handle uint64) (val []byte, ver uint64, ok bool) {
	return c.lookup(hsitIdx, handle, evScanTouch)
}

func (c *Cache) lookup(hsitIdx, handle uint64, kind evKind) (val []byte, ver uint64, ok bool) {
	c.mu.Lock()
	e := c.resolve(hsitIdx, handle)
	if e != nil {
		val, ver = e.Value, e.Ver
		e.hit = e.hit || kind == evTouch
	}
	c.mu.Unlock()
	if e == nil {
		return nil, 0, false
	}
	c.post(event{kind: kind, entry: e, handle: handle}, false)
	return val, ver, true
}

// Resident reports the length of the value handle names for HSIT entry
// hsitIdx, if the handle is still current, without touching the entry:
// a checker's question, which must not promote what it looks at.
func (c *Cache) Resident(hsitIdx, handle uint64) (length int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.resolve(hsitIdx, handle); e != nil {
		return len(e.Value), true
	}
	return 0, false
}

// resolve returns the entry handle names if it is in the table for HSIT
// entry hsitIdx (any entry when hsitIdx is anyIdx). The caller holds mu.
func (c *Cache) resolve(hsitIdx, handle uint64) *Entry {
	slot := uint32(handle&0xffffffff) - 1
	if int(slot) >= len(c.table) {
		return nil
	}
	e := c.table[slot]
	if e == nil || e.gen != uint32(handle>>32) || hsitIdx != anyIdx && e.HSITIdx != hsitIdx {
		return nil
	}
	return e
}

// anyIdx makes resolve match a handle for whichever HSIT entry it is.
const anyIdx = ^uint64(0)

// Admit returns an entry holding a copy of value, the entry's current
// value under publish version ver (opaque to the cache; readers compare
// it on Lookup): a spare entry the two-epoch rule has released, buffer
// and all, or a new one. The caller must then publish e.Handle() in the
// HSIT entry (CAS from 0) and call Published on success — setting
// Protected first to skip probation, or Filler — or AbortAdmit if it lost
// the race (§4.4: published atomically). The key is not kept —
// nothing reads it; the parameter stays because benchmark/ladder.go
// passes one.
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
	e := c.reuse()
	// A spare buffer is kept if it fits and at most doubles the value:
	// bytes accounts len(Value), and the slack must stay bounded.
	if n := len(value); cap(e.Value) < n || cap(e.Value) > 2*n {
		e.Value = make([]byte, n)
	}
	e.Value = e.Value[:len(value)]
	copy(e.Value, value)
	e.HSITIdx, e.Ver, e.slot, e.gen = hsitIdx, ver, slot, c.gens[slot]
	e.Protected, e.Filler, e.hit = false, false, false
	e.live.Store(e.Handle())
	c.table[slot] = e
	c.mu.Unlock()
	return e
}

// reuse pops the oldest spare entry if the two-epoch rule has released
// it (§5.4), or returns a new one. Spares are stamped in the order they
// arrive, so when the oldest is not yet safe none is. The caller holds mu.
func (c *Cache) reuse() *Entry {
	if c.spareN == 0 {
		return new(Entry)
	}
	e := c.spare[c.spareAt]
	if c.cfg.Epochs.Epoch() < e.retired+2 {
		return new(Entry)
	}
	c.spare[c.spareAt] = nil
	c.spareAt = (c.spareAt + 1) % len(c.spare)
	c.spareN--
	c.spareBytes -= e.size()
	c.reuses.Add(1)
	return e
}

// Filling reports whether the cache has never reached capacity and a
// value of n bytes fits in it now: whether a filler may be admitted. The
// first time one would not fit, it reports false from then on, as it
// does once the manager has evicted.
func (c *Cache) Filling(n int) bool {
	if c.filled.Load() {
		return false
	}
	if c.bytes.Load()+int64(n+entryOverhead) > c.cfg.CapacityBytes {
		c.filled.Store(true)
		return false
	}
	return true
}

// Published enqueues the admitted entry for LRU bookkeeping: on
// probation, or in the active list if it is Protected.
func (c *Cache) Published(e *Entry) {
	c.bytes.Add(e.size())
	c.entries.Add(1)
	c.post(event{kind: evAdd, entry: e, handle: e.Handle()}, true)
}

// Backlogged reports that the manager's event queue is more than half
// full. Published and Invalidate wait for a slot, so a caller that must
// not wait — a reclaim pass holding its ring's lock — asks first and
// skips its admission.
func (c *Cache) Backlogged() bool { return len(c.events) > cap(c.events)/2 }

// AbortAdmit releases an entry whose HSIT publication lost a race.
func (c *Cache) AbortAdmit(e *Entry) {
	c.release(e)
}

// Invalidate removes the entry for handle (value deleted or superseded)
// and reports whether a read wanted it: it was still in the table and is
// not a filler that no point read has hit.
func (c *Cache) Invalidate(hsitIdx, handle uint64) (wanted bool) {
	c.mu.Lock()
	e := c.resolve(hsitIdx, handle)
	if e != nil {
		wanted = !e.Filler || e.hit
	}
	c.mu.Unlock()
	if e != nil {
		c.post(event{kind: evRemove, entry: e, handle: handle}, true)
	}
	return wanted
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

// release takes e out of the table, frees its slot and, if the spare ring
// has room, keeps e there stamped with the epoch it left in. The spares'
// values total at most CapacityBytes, as the resident ones do.
func (c *Cache) release(e *Entry) {
	c.mu.Lock()
	if int(e.slot) < len(c.table) && c.table[e.slot] == e {
		c.table[e.slot] = nil
		c.gens[e.slot]++
		c.frees = append(c.frees, e.slot)
		e.live.Store(0)
		if c.spareN < len(c.spare) && c.spareBytes+e.size() <= c.cfg.CapacityBytes {
			e.retired = c.cfg.Epochs.Epoch()
			c.spare[(c.spareAt+c.spareN)%len(c.spare)] = e
			c.spareN++
			c.spareBytes += e.size()
		}
	}
	c.mu.Unlock()
}

// Stats is a snapshot of cache counters.
type Stats struct {
	Bytes         int64
	Entries       int64
	Evictions     int64
	Promotions    int64 // 2Q inactive -> active moves, on point reads' hits
	ChainRewrites int64
	TouchDrops    int64
	Reuses        int64 // admissions that reused a dropped entry
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
		Reuses:        c.reuses.Load(),
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
		if ev.entry != nil && ev.entry.live.Load() != ev.handle {
			continue // for an incarnation that has left the table
		}
		switch ev.kind {
		case evAdd:
			if e := ev.entry; e.state == 0 {
				e.earned = false
				if e.Protected {
					e.state = 2
					c.active.pushHead(e)
				} else {
					e.state = 1
					c.inactive.pushHead(e)
				}
				c.rebalance()
			}
		case evTouch:
			c.touch(ev.entry)
		case evScanTouch:
			if e := ev.entry; e.state == 1 {
				c.inactive.remove(e)
				c.inactive.pushHead(e)
			}
		case evRemove:
			c.drop(ev.entry, true)
		case evChain:
			c.link(ev.handles)
		case evSync:
			close(ev.done)
		}
	}
}

// touch applies 2Q promotion: a point read's hit — the second access,
// after the one that admitted it — moves an inactive entry to the active
// list; an active entry refreshes to the head. A filler's first hit is the
// access that admits it: it refreshes the filler on probation.
func (c *Cache) touch(e *Entry) {
	switch e.state {
	case 1:
		c.inactive.remove(e)
		if e.Filler && !e.earned {
			e.earned = true
			c.inactive.pushHead(e)
			return
		}
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
	c.filled.Store(true)
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
	c.release(e)
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
		c.mu.Lock()
		e := c.resolve(anyIdx, h)
		c.mu.Unlock()
		if e == nil || e.state == 0 {
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
