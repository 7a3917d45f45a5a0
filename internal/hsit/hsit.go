// Package hsit implements the Heterogeneous Storage Index Table (§4.5):
// the NVM-resident indirection layer at the center of Prism's cross-media
// concurrency control and crash consistency.
//
// Each entry is 16 bytes, updated with 8-byte atomics on the simulated
// NVM device:
//
//	word 0 — forward pointer to the durable value:
//	         [media:2][dirty:1][len:16][off:45]
//	word 1 — volatile forward pointer to the SVC (DRAM cache) entry;
//	         meaningless after a crash and nullified during recovery.
//
// A value can live in either the PWB or Value Storage, never both, so a
// single durable pointer word suffices — this is how the paper packs
// three forward pointers into 16 bytes. The value length rides in the
// pointer so a Value Storage read knows how many bytes to fetch.
//
// Durable linearizability (§5.4) uses the flush-on-read dirty bit: a
// writer CASes in the new pointer with the dirty bit set, flushes the
// line, then clears the bit with a second CAS. A reader that observes the
// dirty bit flushes the line on the writer's behalf before using the
// pointer, so an unpersisted pointer is never acted upon.
//
// One entry is one NVM access (the point of packing it into 16 bytes), and
// the cost model charges it that way: Entry reads both words for one
// read; a publisher reads the word it CASes once — when it asks
// (Publish, PublishIf's compare) or ahead of time (Prefetch, then
// PublishAt) — and gets the SVC word back with the line its CAS owns.
// Only a CAS that loses to a reader's flush-on-read pays for a second read.
//
// Concurrency contract: every Table method is safe for concurrent use by
// any number of goroutines; entry words are only ever read and written
// with 8-byte atomics, and the CAS on the forward pointer is the
// linearization point of a write. Callers must hold an epoch
// (epoch.Participant.Enter) across any load-then-use of an entry, since
// freed entries are recycled only after the two-epoch grace period.
//
// Each entry additionally carries a volatile (DRAM) publish version — a
// per-entry seqlock bumped by every pointer install. Readers are
// unaffected; publishers serialize per entry on it. Its purpose is
// ABA-safe currency certification for the SVC: pointer words alias when
// PWB slots or Value Storage chunks are recycled, versions never do.
// See Version, PublishIfVersion.
package hsit

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/nvm"
)

// EntrySize is the NVM footprint of one HSIT entry in bytes.
const EntrySize = 16

// Media identifies which device a forward pointer targets.
type Media uint8

// Forward-pointer media tags.
const (
	None Media = iota // entry holds no durable value (deleted/fresh)
	PWB               // offset into the NVM write-buffer space
	VS                // global offset into Value Storage (SSD space)
)

func (m Media) String() string {
	switch m {
	case None:
		return "none"
	case PWB:
		return "pwb"
	case VS:
		return "vs"
	}
	return fmt.Sprintf("media(%d)", uint8(m))
}

const (
	mediaShift = 62
	dirtyBit   = uint64(1) << 61
	lenShift   = 45
	lenMask    = uint64(0xffff)
	offMask    = (uint64(1) << lenShift) - 1

	// MaxValueLen is the largest value length encodable in a pointer.
	MaxValueLen = int(lenMask)
	// MaxOffset is the largest device offset encodable in a pointer.
	MaxOffset = offMask
)

// Pointer is a decoded forward pointer.
type Pointer struct {
	Media Media
	Len   int    // value length in bytes
	Off   uint64 // location within the media's address space
}

// IsNil reports whether the pointer targets no durable value.
func (p Pointer) IsNil() bool { return p.Media == None }

func (p Pointer) String() string {
	if p.IsNil() {
		return "<nil>"
	}
	return fmt.Sprintf("%s@%d+%d", p.Media, p.Off, p.Len)
}

// Encode packs p into its on-NVM word (dirty bit clear).
func Encode(p Pointer) uint64 {
	if p.Media == None {
		return 0
	}
	if p.Len < 0 || p.Len > MaxValueLen {
		panic(fmt.Sprintf("hsit: value length %d out of range", p.Len))
	}
	if p.Off > MaxOffset {
		panic(fmt.Sprintf("hsit: offset %d out of range", p.Off))
	}
	return uint64(p.Media)<<mediaShift | uint64(p.Len)<<lenShift | p.Off
}

// Decode unpacks an on-NVM word (the dirty bit is ignored).
func Decode(w uint64) Pointer {
	w &^= dirtyBit
	m := Media(w >> mediaShift)
	if m == None {
		return Pointer{}
	}
	return Pointer{Media: m, Len: int(w >> lenShift & lenMask), Off: w & offMask}
}

// ErrFull is returned by Alloc when every entry is in use.
var ErrFull = errors.New("hsit: table full")

// Table is the HSIT. Entries live on the NVM device at [base,
// base+EntrySize*capacity); the free list and allocation cursor are
// volatile and rebuilt during recovery.
type Table struct {
	dev  *nvm.Device
	base int
	cap  uint64
	em   *epoch.Manager

	bump atomic.Uint64 // next never-used slot

	mu   sync.Mutex
	free []uint64 // recycled slots

	allocated atomic.Int64 // live entries (for NVM-space accounting)

	// vers holds one volatile publish-version word per entry (DRAM, not
	// NVM: versions are rebuilt as zero after a crash, which is safe
	// because the SVC they protect is nullified during recovery too).
	//
	// The word is a seqlock: even = quiescent, odd = a publish in
	// flight. Every publisher claims the entry (CAS even→odd), installs
	// the pointer, and releases with +1 (Publish) or restores the old
	// even value when nothing was installed (PublishIf miss). The
	// counter is monotone over successful publishes and never reused, so
	// "version unchanged and even" certifies that NO pointer install
	// overlapped the observation window — a guarantee the pointer word
	// itself cannot give: PWB ring offsets and Value Storage chunks are
	// recycled, so a superseded-then-rewritten value of the same length
	// can land at the same offset and make the pointer word bit-identical
	// to a stale snapshot (ABA). Cache admission keyed on pointer
	// equality would then publish stale bytes; versions close that.
	vers []atomic.Uint64
}

// New creates a table over capacity entries starting at byte offset base
// of dev. The region must be 8-byte aligned and within the device.
func New(dev *nvm.Device, base int, capacity int, em *epoch.Manager) *Table {
	if base%8 != 0 {
		panic("hsit: unaligned base")
	}
	if base+capacity*EntrySize > dev.Size() {
		panic("hsit: region exceeds device")
	}
	return &Table{dev: dev, base: base, cap: uint64(capacity), em: em,
		vers: make([]atomic.Uint64, capacity)}
}

// Version returns the entry's volatile publish version. Even values are
// quiescent; an odd value means a publish is in flight. A reader that
// observes the same even version before loading the forward pointer and
// after acting on the bytes it read is guaranteed that no publish
// overlapped — the foundation of SVC admission's currency guard, which
// cannot rely on pointer-word equality (recycled offsets make stale
// pointer words bit-identical to current ones).
func (t *Table) Version(idx uint64) uint64 {
	t.checkIdx(idx)
	return t.vers[idx].Load()
}

// lockVersion claims idx's publish seqlock (even→odd), spinning out any
// concurrent publisher. Critical sections are a handful of simulated-NVM
// word operations, so the spin is short and never blocks on IO.
func (t *Table) lockVersion(idx uint64) uint64 {
	for {
		v := t.vers[idx].Load()
		if v&1 == 0 && t.vers[idx].CompareAndSwap(v, v+1) {
			return v
		}
		runtime.Gosched()
	}
}

// Capacity returns the number of entry slots.
func (t *Table) Capacity() int { return int(t.cap) }

// Live returns the number of allocated entries.
func (t *Table) Live() int { return int(t.allocated.Load()) }

// SpaceBytes returns the NVM bytes consumed by live entries.
func (t *Table) SpaceBytes() int64 { return t.allocated.Load() * EntrySize }

func (t *Table) word0(idx uint64) int { return t.base + int(idx)*EntrySize }
func (t *Table) word1(idx uint64) int { return t.base + int(idx)*EntrySize + 8 }

func (t *Table) checkIdx(idx uint64) {
	if idx >= t.cap {
		panic(fmt.Sprintf("hsit: index %d out of range (cap %d)", idx, t.cap))
	}
}

// Alloc returns a fresh entry index with both words zeroed. The zeroed
// state is persisted so a post-crash recovery never mistakes a recycled
// entry for a live one.
func (t *Table) Alloc(clk nvm.Clock) (uint64, error) {
	t.mu.Lock()
	var idx uint64
	if n := len(t.free); n > 0 {
		idx = t.free[n-1]
		t.free = t.free[:n-1]
		t.mu.Unlock()
	} else {
		t.mu.Unlock()
		idx = t.bump.Add(1) - 1
		if idx >= t.cap {
			t.bump.Add(^uint64(0)) // undo
			return 0, ErrFull
		}
	}
	t.dev.StoreUint64(clk, t.word0(idx), 0)
	t.dev.StoreUint64(clk, t.word1(idx), 0)
	t.dev.Persist(clk, t.word0(idx), EntrySize)
	t.allocated.Add(1)
	return idx, nil
}

// Free retires idx: after two epochs (no concurrent reader can still
// reach it, §5.4) the slot returns to the free list.
func (t *Table) Free(idx uint64) {
	t.checkIdx(idx)
	t.allocated.Add(-1)
	t.em.Retire(func() {
		t.mu.Lock()
		t.free = append(t.free, idx)
		t.mu.Unlock()
	})
}

// Load returns the forward pointer of idx, applying flush-on-read: if the
// dirty bit is set the reader persists the line and clears the bit on the
// writer's behalf, so the returned pointer is always durable.
func (t *Table) Load(clk nvm.Clock, idx uint64) Pointer {
	t.checkIdx(idx)
	off := t.word0(idx)
	return t.flushOnRead(clk, off, t.dev.LoadUint64(clk, off))
}

// Entry reads idx's whole entry — the forward pointer, as Load returns it,
// and the volatile SVC handle (0 = none) — in one NVM access: the three
// forward pointers share 16 bytes so that one read reaches all of them
// (§4.5). It is the one way to read the SVC word.
func (t *Table) Entry(clk nvm.Clock, idx uint64) (p Pointer, svc uint64) {
	t.checkIdx(idx)
	off := t.word0(idx)
	if ready := t.dev.Prefetch(clk, off, EntrySize); clk != nil {
		clk.AdvanceTo(ready)
	}
	return t.flushOnRead(clk, off, t.dev.HeldUint64(off)), t.dev.HeldUint64(t.word1(idx))
}

func (t *Table) flushOnRead(clk nvm.Clock, off int, w uint64) Pointer {
	if w&dirtyBit != 0 {
		t.dev.Persist(clk, off, 8)
		t.dev.CompareAndSwapUint64(clk, off, w, w&^dirtyBit)
	}
	return Decode(w)
}

// Prefetch starts the read of idx's forward pointer for the publish the
// caller is about to make (PublishAt) and returns when the line will be
// there. Issued as soon as idx is known, it is long back by the time the
// value has been appended to the PWB.
func (t *Table) Prefetch(clk nvm.Clock, idx uint64) (ready int64) {
	t.checkIdx(idx)
	return t.dev.Prefetch(clk, t.word0(idx), 8)
}

// install runs the durable-linearizable dirty-bit install under the
// publish claim: CAS in the new word with the dirty bit set, persist,
// clear. old is the word as the caller has read it; the first CAS is
// against it, and only a CAS that loses pays for another read. The CAS
// loop only contends with readers' flush-on-read clears, never another
// publisher (those are spun out by the seqlock). It returns the word it
// displaced.
func (t *Table) install(clk nvm.Clock, off int, old, neww uint64) uint64 {
	for !t.dev.CompareAndSwapUint64(clk, off, old, neww|dirtyBit) {
		old = t.dev.LoadUint64(clk, off)
	}
	t.dev.Persist(clk, off, 8)
	t.dev.CompareAndSwapUint64(clk, off, neww|dirtyBit, neww)
	return old
}

// Publish unconditionally installs p as idx's forward pointer with the
// durable-linearizable dirty-bit protocol and returns the pointer it
// replaced. The replaced location is now ill-coupled garbage the caller
// must invalidate (PWB: nothing to do; VS: clear the validity bit), and so
// is any cached copy: svc is the entry's SVC handle, read after the
// install from the line the CAS owns.
func (t *Table) Publish(clk nvm.Clock, idx uint64, p Pointer) (old Pointer, svc uint64) {
	return t.PublishAt(clk, idx, p, t.Prefetch(clk, idx))
}

// PublishAt is Publish for a caller that issued Prefetch(clk, idx) when it
// learned idx: ready is what that returned. The publish waits for what is
// left of the read, if anything, and loads the word then — whatever
// happened to the entry since the prefetch, it is the current word that
// is displaced and returned.
func (t *Table) PublishAt(clk nvm.Clock, idx uint64, p Pointer, ready int64) (old Pointer, svc uint64) {
	v := t.lockVersion(idx)
	if clk != nil {
		clk.AdvanceTo(ready)
	}
	off := t.word0(idx)
	w := t.install(clk, off, t.dev.HeldUint64(off), Encode(p))
	svc = t.dev.HeldUint64(t.word1(idx))
	t.vers[idx].Store(v + 2)
	return Decode(w), svc
}

// PublishIf installs p only if the current pointer still equals expect
// (ignoring the dirty bit). It returns false when the entry has moved on —
// the reclamation/GC case where a foreground write superseded the value
// being migrated (§5.2). On success the expect location is garbage, and
// ver is the publish version this install left behind: the bytes the
// caller moved are the entry's current value for exactly as long as
// Version(idx) still reads ver (what the reclaimer admits them to the SVC
// under).
//
// Callers must guarantee expect cannot be a recycled-offset alias of a
// different value (reclamation's frozen-tail scan and GC's victim-chunk
// pin both do); callers that cannot, use PublishIfVersion.
func (t *Table) PublishIf(clk nvm.Clock, idx uint64, expect, p Pointer) (ver uint64, ok bool) {
	v := t.lockVersion(idx)
	off := t.word0(idx)
	w := t.dev.LoadUint64(clk, off)
	if w&^dirtyBit != Encode(expect) {
		t.vers[idx].Store(v) // nothing installed: restore quiescence
		return 0, false
	}
	t.install(clk, off, w, Encode(p))
	t.vers[idx].Store(v + 2)
	return v + 2, true
}

// PublishIfVersion installs p only if the entry's publish version still
// equals expectVer (an even Version() observation taken when the caller
// read the value it is relocating). Unlike PublishIf's pointer-word
// compare, the version cannot alias across offset reuse, so this is the
// safe conditional publish for relocators whose old location may have
// been recycled since the snapshot (the SVC scan rewrite).
func (t *Table) PublishIfVersion(clk nvm.Clock, idx uint64, expectVer uint64, p Pointer) bool {
	t.checkIdx(idx)
	if expectVer&1 != 0 || !t.vers[idx].CompareAndSwap(expectVer, expectVer+1) {
		return false
	}
	off := t.word0(idx)
	t.install(clk, off, t.dev.LoadUint64(clk, off), Encode(p))
	t.vers[idx].Store(expectVer + 2)
	return true
}

// Clear removes the forward pointer (delete path), returning what Publish
// returns: the old pointer and the SVC handle.
func (t *Table) Clear(clk nvm.Clock, idx uint64) (old Pointer, svc uint64) {
	return t.Publish(clk, idx, Pointer{})
}

// CasSVC atomically replaces the SVC handle if it still equals old. No
// flush: the word is volatile by design (§4.4 — lock-free publication).
func (t *Table) CasSVC(clk nvm.Clock, idx uint64, old, new uint64) bool {
	t.checkIdx(idx)
	return t.dev.CompareAndSwapUint64(clk, t.word1(idx), old, new)
}

// RebuildVolatile reconstructs the volatile state after a crash: the free
// list becomes every slot not in the reachable set, reachable entries get
// their SVC word nullified, and unreachable words are zeroed and
// persisted so a later crash cannot resurrect them. reachable must report
// true exactly for the HSIT indices found by the key-index scan (§5.5).
// It returns the number of live entries.
func (t *Table) RebuildVolatile(reachable func(idx uint64) bool, scanLimit uint64) int {
	if scanLimit > t.cap {
		scanLimit = t.cap
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.free = t.free[:0]
	live := 0
	for idx := uint64(0); idx < scanLimit; idx++ {
		if reachable(idx) {
			live++
			t.dev.StoreUint64(nil, t.word1(idx), 0)
			continue
		}
		t.dev.StoreUint64(nil, t.word0(idx), 0)
		t.dev.StoreUint64(nil, t.word1(idx), 0)
		t.dev.Persist(nil, t.word0(idx), EntrySize)
		t.free = append(t.free, idx)
	}
	t.bump.Store(scanLimit)
	t.allocated.Store(int64(live))
	return live
}
