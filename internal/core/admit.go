package core

import (
	"math"
	"sync/atomic"

	"repro/internal/sim"
)

// What the SVC admits (DESIGN.md §4.13). Three sources publish values in
// the cache, all through admitToSVC: a point read that went to the SSD
// (always — the paper's rule, §4.4), a scan row read from the SSD that
// had been read before, and a record the reclaimer moves from the PWB to
// Value Storage that had been read before. "Read before" is one filter.

// readFilter is the store's read-recency filter: one volatile bit per
// HSIT slot, set by every point read (whichever medium served it) and by
// a scan's touch of a Value Storage row. It forgets by clearing itself
// whenever limit() bits are set, so on average it remembers half that
// many distinct slots; a slot handed to a new key starts unread. A store
// without an SVC keeps one too — 8 KiB per 64k slots — that nothing asks.
type readFilter struct {
	bits  []atomic.Uint64
	n     atomic.Int64 // bits set since the last clear
	limit func() int64
}

func newReadFilter(slots int, limit func() int64) *readFilter {
	return &readFilter{bits: make([]atomic.Uint64, (slots+63)/64), limit: limit}
}

func (f *readFilter) word(idx uint64) (*atomic.Uint64, uint64) {
	return &f.bits[idx>>6], 1 << (idx & 63)
}

// mark records a read of idx and reports whether one was on record
// already. A set bit costs one load of a shared line nobody is writing;
// only a new bit looks at the limit.
func (f *readFilter) mark(idx uint64) bool {
	w, m := f.word(idx)
	if w.Load()&m != 0 {
		return true
	}
	if f.n.Load() >= f.limit() {
		f.clear()
	}
	if w.Or(m)&m == 0 {
		f.n.Add(1)
	}
	return false
}

func (f *readFilter) has(idx uint64) bool {
	w, m := f.word(idx)
	return w.Load()&m != 0
}

// forget drops idx's bit: the slot is being handed to a new key, which
// nobody has read.
func (f *readFilter) forget(idx uint64) {
	if w, m := f.word(idx); w.Load()&m != 0 && w.And(^m)&m != 0 {
		f.n.Add(-1)
	}
}

// clear forgets everything, in place. A mark racing it may keep its bit
// uncounted or lose it; both are one key's worth of error until the next
// clear.
func (f *readFilter) clear() {
	for i := range f.bits {
		f.bits[i].Store(0)
	}
	f.n.Store(0)
}

// recentSpan is how many cache capacities of distinct slots the filter
// may hold before it clears. The filter has to outlast the gap between a
// key's reads for as long as the cache could have kept the key, and no
// longer: at 8 it never clears on a 40k-key space and admits everything
// ever read, at 1 it forgets keys the cache still holds (ISSUE 17:
// mixed-nutanix 184 / 194 / 195 virt_kops at 8 / 1 / 2).
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

// sawTime raises lastSeen to now. Its writers' clocks — application
// threads and reclaimers — differ by milliseconds, and lastSeen must not
// move backwards with whoever wrote last.
func (s *Store) sawTime(now int64) {
	for {
		cur := s.lastSeen.Load()
		if now <= cur || s.lastSeen.CompareAndSwap(cur, now) {
			return
		}
	}
}

// admitToSVC publishes value in the cache as idx's current value
// (lock-free HSIT publication, §4.4), on the caller's clock. ver is a
// publish version under which value is known to be current: the one a
// reader observed before the pointer load its read resolved, or the one
// the reclaimer's own PublishIf installed. Admission is aborted if the
// entry has moved on since.
func (s *Store) admitToSVC(clk *sim.Clock, idx uint64, ver uint64, value []byte) (handle uint64, admitted bool) {
	if s.cache == nil || ver&1 != 0 {
		return 0, false
	}
	e := s.cache.Admit(idx, ver, nil, value)
	if !s.table.CasSVC(clk, idx, 0, e.Handle()) {
		s.cache.AbortAdmit(e)
		return 0, false
	}
	s.sawTime(clk.Now()) // an admission is what evicts: the rewrite it may cause happens now
	s.cache.Published(e)
	// Admission TOCTOU guard: a writer that superseded the value after
	// our read may have run its invalidateOld before the CAS above, seen
	// word1 == 0, and concluded there was nothing to unpublish — which
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
// key was read recently the next read should not pay an SSD read for
// bytes the pass has in its hands. It is advisory: Published waits for a
// slot in the cache manager's queue, and a pass holds its ring's lock
// (the owner may be asleep in pwb.Wait for this pass), so with the queue
// half full the hand-off is skipped and counted.
func (s *Store) handOff(clk *sim.Clock, idx, ver uint64, value []byte) {
	if s.cache == nil || !s.recent.has(idx) {
		return
	}
	if s.cache.Backlogged() {
		s.stats.reclaimAdmitSkips.Add(1)
	} else if _, ok := s.admitToSVC(clk, idx, ver, value); ok {
		s.stats.reclaimAdmits.Add(1)
	}
}
