package core

import (
	"math"
	"sync/atomic"

	"repro/internal/sim"
)

// Which keys are popular (DESIGN.md §4.13). Two questions are asked of
// one tracker. "Was this key read recently" gates what the SVC admits:
// three sources publish values in the cache, all through admitToSVC — a
// point read that went to the SSD (always: the paper's rule, §4.4), a
// scan's Value Storage rows when every one of them had been touched
// before, and a record the reclaimer moves from the PWB to Value Storage
// that had been point-read before. Until the cache first fills, the last
// two admit every value as a filler (svc.Cache.Filling): DRAM nobody uses
// yet costs nothing to fill. "Does this key deserve fast media" steers
// tiering (hotIdx).

// plane is one volatile bit per HSIT slot, and how many are set.
type plane struct {
	bits []atomic.Uint64
	n    atomic.Int64 // bits set since the last clear
}

func (p *plane) word(idx uint64) (*atomic.Uint64, uint64) {
	return &p.bits[idx>>6], 1 << (idx & 63)
}

func (p *plane) has(idx uint64) bool {
	w, m := p.word(idx)
	return w.Load()&m != 0
}

// set costs one load of a shared line nobody is writing when the bit is
// set already.
func (p *plane) set(idx uint64) {
	if w, m := p.word(idx); w.Load()&m == 0 && flip(w, m, true) {
		p.n.Add(1)
	}
}

func (p *plane) drop(idx uint64) {
	if w, m := p.word(idx); w.Load()&m != 0 && flip(w, m, false) {
		p.n.Add(-1)
	}
}

// flip sets or clears m in w and reports whether this call changed it.
// It is its own frame because go1.24.0's amd64 loop for an Or or And
// whose result is used takes a scratch register without telling the
// allocator: inlined, it overwrote the caller's saved receiver and the
// count's Add faulted at address 0 (TestReadFilterAgeing).
//
//go:noinline
func flip(w *atomic.Uint64, m uint64, on bool) bool {
	if on {
		return w.Or(m)&m == 0
	}
	return w.And(^m)&m != 0
}

// clear forgets everything, in place. A set racing it may keep its bit
// uncounted or lose it; both are one key's worth of error until the next
// clear.
func (p *plane) clear() {
	for i := range p.bits {
		p.bits[i].Store(0)
	}
	p.n.Store(0)
}

// popularity is the store's one popularity tracker: up to five planes.
//
// read is set by every point read, whichever medium served it. scanned is
// set by a scan's touch of a Value Storage row, and by nothing else: a
// scan touches a row whether or not anybody wants it, so its touches
// neither age the point reads' plane nor count as a point read to the
// reclaimer's hand-off or to tier steering. Each clears itself whenever
// readLimit() of its bits are set, so on average it remembers half that
// many distinct slots. A store without an SVC keeps both — 8 KiB each
// per 64k slots — that nothing asks.
//
// cached is set when an overwrite or delete unpublishes the slot's SVC
// entry and a read wanted it (invalidateOld: not a filler no point read
// hit), and dropped when the reclaimer's hand-off looks at the slot: the
// new value takes the old one's place in the cache, on the protected list
// if the key was point-read recently too. It never ages, and holds at
// most one bit per entry the cache dropped that way.
//
// written and again exist only when tiering is armed, and are set by a
// put's publish: the first write of a slot sets written, a later one
// again, so load-once data never earns again — every record in the PWB
// ring was by construction written recently, and recency alone would
// call a one-shot bulk load hot (PrismDB's popularity rule). Both clear
// once writeLimit distinct slots have been written — one-shot inserts
// count, so a hot set that stops being written cools while cold traffic
// flows past it.
//
// A write never sets a read bit: a write-only key must never be handed
// to the cache. A slot handed to a new key forgets every plane. All of it
// is DRAM and cleared by a crash, which is safe: placement already made
// persists in Value Storage, and the bits re-accumulate with traffic.
type popularity struct {
	read, scanned, cached, written, again plane
	readLimit                             func() int64
	writeLimit                            int64
}

func newPopularity(slots int, tiered bool, readLimit func() int64) *popularity {
	words := (slots + 63) / 64
	p := &popularity{readLimit: readLimit, writeLimit: int64(slots) / 4}
	p.read.bits = make([]atomic.Uint64, words)
	p.scanned.bits = make([]atomic.Uint64, words)
	p.cached.bits = make([]atomic.Uint64, words)
	if tiered {
		p.written.bits = make([]atomic.Uint64, words)
		p.again.bits = make([]atomic.Uint64, words)
	}
	return p
}

// touch sets idx in pl and reports whether it was set already. Only a new
// bit looks at the limit.
func (p *popularity) touch(pl *plane, idx uint64) bool {
	if pl.has(idx) {
		return true
	}
	if pl.n.Load() >= p.readLimit() {
		pl.clear()
	}
	pl.set(idx)
	return false
}

// mark records a point read of idx and reports whether one was on record
// already.
func (p *popularity) mark(idx uint64) bool { return p.touch(&p.read, idx) }

// scan records a scan's touch of idx and reports whether the slot was
// touched before, by a scan or a point read.
func (p *popularity) scan(idx uint64) bool {
	return p.touch(&p.scanned, idx) || p.read.has(idx)
}

// wrote records a put's publish at idx.
func (p *popularity) wrote(idx uint64) {
	switch {
	case p.written.bits == nil:
	case p.written.has(idx):
		p.again.set(idx)
	default:
		if p.written.n.Load() >= p.writeLimit {
			p.written.clear()
			p.again.clear()
		}
		p.written.set(idx)
	}
}

// forget drops idx from every plane: the slot is being handed to a new
// key, which nobody has read or written.
func (p *popularity) forget(idx uint64) {
	p.read.drop(idx)
	p.scanned.drop(idx)
	p.cached.drop(idx)
	if p.written.bits != nil {
		p.written.drop(idx)
		p.again.drop(idx)
	}
}

func (p *popularity) clear() {
	p.read.clear()
	p.scanned.clear()
	p.cached.clear()
	p.written.clear()
	p.again.clear()
}

// recentSpan is how many cache capacities of distinct slots a read or
// scanned plane may hold before it clears. The read plane has to outlast
// the gap between a key's reads for as long as the cache could have kept
// the key, and no longer: at 8 it never clears on a 40k-key space and
// admits everything ever read, at 1 it forgets keys the cache still holds
// (mixed-nutanix 184 / 194 / 195 virt_kops at 8 / 1 / 2, one plane for
// point reads and scans). Re-checked with the planes split, scan hits
// kept on probation and overwrites keeping their place: 341 and 345 at 1,
// 349 and 346 at 2, 342 and 340 at 4 (seeds 1 and 2).
const recentSpan = 2

// recentLimit is the filter's limit: recentSpan times the number of
// entries the cache holds when full, from SVCBytes and the mean size of
// the entries resident now. An empty cache has no working set to protect
// and no sizes to go by: the filter then keeps everything.
func (s *Store) recentLimit() int64 {
	c := s.cache
	if c == nil {
		return math.MaxInt64
	}
	st := c.Stats()
	if st.Entries <= 0 || st.Bytes <= 0 {
		return math.MaxInt64
	}
	return recentSpan * s.opt.SVCBytes * st.Entries / st.Bytes
}

// admission is the list an admitToSVC entry enters, and why.
type admission uint8

const (
	probation admission = iota // a read asked for the value
	protected                  // a read asked for the key's value before its overwrite
	filler                     // nobody asked: only while the cache is filling
)

// admitToSVC publishes value in the cache as idx's current value
// (lock-free HSIT publication, §4.4), on the caller's clock. ver is a
// publish version under which value is known to be current: the one a
// reader observed before the pointer load its read resolved, or the one
// the reclaimer's own PublishIf installed. Admission is aborted if the
// entry has moved on since, and a filler is not admitted once the cache
// has filled.
func (s *Store) admitToSVC(clk *sim.Clock, idx uint64, ver uint64, value []byte, as admission) (handle uint64, admitted bool) {
	if s.cache == nil || ver&1 != 0 || as == filler && !s.cache.Filling(len(value)) {
		return 0, false
	}
	e := s.cache.Admit(idx, ver, nil, value)
	e.Protected, e.Filler = as == protected, as == filler
	if !s.table.CasSVC(clk, idx, 0, e.Handle()) {
		s.cache.AbortAdmit(e)
		return 0, false
	}
	s.cache.Published(e)
	// Admission TOCTOU guard: a writer that superseded the value after
	// our read may have run its invalidateOld before the CAS above, seen
	// no handle, and concluded there was nothing to unpublish — which
	// would leave these stale bytes cached forever. Re-checking the
	// publish version after publishing closes the window: whichever side
	// acts second is guaranteed to see the other's update. The version —
	// not the forward pointer — is what makes the guard sound: Value
	// Storage chunks and PWB ring slots are recycled without epoch grace,
	// so a superseded value of the same length can be rewritten at the
	// same offset and make the pointer word match a stale snapshot (the
	// releaseChunk coincidence is linearizable for an overlapping read,
	// but caching it would leak the stale bytes to later reads). A reader
	// that resolves the handle between the CAS and this retraction is
	// covered by svcRead's identical version check.
	if s.table.Version(idx) != ver {
		if s.table.CasSVC(clk, idx, e.Handle(), 0) {
			s.cache.Invalidate(idx, e.Handle())
		}
		return 0, false
	}
	return e.Handle(), true
}

// handOff is the reclaimer's admission: value — still in the ring — has
// just been published at its Value Storage location under ver, and if the
// key was read recently, or its overwrite dropped a cached copy, the next
// read should not pay an SSD read for bytes the pass has in its hands. A
// key that is both keeps its place on the protected list; the cached bit
// is spent either way. Any other key's value is a filler: admitted while
// the cache has never filled, since until then it costs one DRAM copy and
// evicts nothing. It is advisory: Published waits for a slot in the
// cache manager's queue, and a pass holds its ring's lock (the owner may
// be asleep in pwb.Wait for this pass), so with the queue half full the
// hand-off is skipped and counted.
func (s *Store) handOff(clk *sim.Clock, idx, ver uint64, value []byte) {
	if s.cache == nil {
		return
	}
	read, cached := s.pop.read.has(idx), s.pop.cached.has(idx)
	as := probation
	switch {
	case cached:
		s.pop.cached.drop(idx)
		if read {
			as = protected
		}
	case !read:
		if !s.cache.Filling(len(value)) {
			return
		}
		as = filler
	}
	if s.cache.Backlogged() {
		s.stats.reclaimAdmitSkips.Add(1)
	} else if _, ok := s.admitToSVC(clk, idx, ver, value, as); ok {
		s.stats.reclaimAdmits.Add(1)
	}
}
