// Package hsit implements the Heterogeneous Storage Index Table (§4.5):
// the indirection layer at the center of Prism's cross-media concurrency
// control and crash consistency.
//
// An entry is one 8-byte word on the simulated NVM device, the forward
// pointer to the durable value, updated with 8-byte atomics:
//
//	[media:2][dirty:1][len:16][off:45]
//
// A value lives in either the PWB or Value Storage, never both, so one
// durable pointer serves as the paper's PWB and Value Storage pointers.
// The value length rides in the pointer so a Value Storage read knows how
// many bytes to fetch. The paper's third pointer, to the value's SVC (DRAM
// cache) entry, is volatile — recovery nullifies it — so it lives in DRAM,
// one handle word per entry beside the publish version, not in NVM: a read
// the SVC serves pays a DRAM access for it, not an NVM one.
//
// Durable linearizability (§5.4) uses the flush-on-read dirty bit: a
// writer CASes in the new pointer with the dirty bit set, flushes the
// line, then clears the bit with a second CAS. A reader that observes the
// dirty bit flushes the line on the writer's behalf before using the
// pointer, so an unpersisted pointer is never acted upon.
//
// The cost model charges each word where it lives: a pointer read is one
// NVM access, a handle read or CAS one DRAM access. A reader that wants
// both issues the pointer's read (Prefetch), reads the handle (SVC) while
// it is in flight, and waits for the pointer (LoadAt) only if the handle
// did not serve it. A publisher reads the word it CASes once — when it
// asks (Publish, PublishIf's compare) or ahead of time (Prefetch, then
// PublishAt) — and reads the handle after its install for free. Only a
// CAS that loses to a reader's flush-on-read pays for a second read.
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
	"repro/internal/sim"
)

// EntrySize is the NVM footprint of one HSIT entry in bytes: the forward
// pointer word.
const EntrySize = 8

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

	mu      sync.Mutex
	free    []uint64     // recycled slots
	recycle func(uint64) // Free's retirement callback, built once

	allocated atomic.Int64 // live entries (for NVM-space accounting)

	// vers holds one volatile publish-version word per entry (DRAM, not
	// NVM). The Table outlives a crash and RebuildVolatile leaves vers
	// alone, so versions stay monotone across it; what they certify, SVC
	// admissions, recovery nullifies.
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

	// svc holds each entry's SVC handle (0 = none): the paper's third
	// forward pointer, volatile by design, so in DRAM. RebuildVolatile
	// zeroes it.
	svc []atomic.Uint64
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
	t := &Table{dev: dev, base: base, cap: uint64(capacity), em: em,
		vers: make([]atomic.Uint64, capacity), svc: make([]atomic.Uint64, capacity)}
	t.recycle = func(idx uint64) {
		t.mu.Lock()
		t.free = append(t.free, idx)
		t.mu.Unlock()
	}
	return t
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

func (t *Table) word(idx uint64) int { return t.base + int(idx)*EntrySize }

func (t *Table) checkIdx(idx uint64) {
	if idx >= t.cap {
		panic(fmt.Sprintf("hsit: index %d out of range (cap %d)", idx, t.cap))
	}
}

// Alloc returns a fresh entry index with its pointer and handle zeroed.
// The zeroed pointer is persisted so a post-crash recovery never mistakes
// a recycled entry for a live one; the handle's store is a DRAM store the
// thread does not wait for, and is free.
func (t *Table) Alloc(clk *sim.Clock) (uint64, error) {
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
	t.dev.StoreUint64(clk, t.word(idx), 0)
	t.dev.Persist(clk, t.word(idx), EntrySize)
	t.svc[idx].Store(0)
	t.allocated.Add(1)
	return idx, nil
}

// Free retires idx: after two epochs (no concurrent reader can still
// reach it, §5.4) the slot returns to the free list.
func (t *Table) Free(idx uint64) {
	t.checkIdx(idx)
	t.allocated.Add(-1)
	t.em.Retire(t.recycle, idx)
}

// Load returns the forward pointer of idx, applying flush-on-read: if the
// dirty bit is set the reader persists the line and clears the bit on the
// writer's behalf, so the returned pointer is always durable.
func (t *Table) Load(clk *sim.Clock, idx uint64) Pointer {
	return t.LoadAt(clk, idx, t.Prefetch(clk, idx))
}

// LoadAt is Load for a caller that issued Prefetch(clk, idx) earlier: ready
// is what that returned. It waits for what is left of the read and loads
// the word then, for no read of its own.
func (t *Table) LoadAt(clk *sim.Clock, idx uint64, ready int64) Pointer {
	if clk != nil {
		clk.AdvanceTo(ready)
	}
	off := t.word(idx)
	return t.flushOnRead(clk, off, t.dev.HeldUint64(off))
}

// SVC returns idx's SVC handle (0 = none), one DRAM access.
func (t *Table) SVC(clk *sim.Clock, idx uint64) uint64 {
	t.checkIdx(idx)
	if clk != nil {
		clk.Advance(sim.DRAMLatency)
	}
	return t.svc[idx].Load()
}

func (t *Table) flushOnRead(clk *sim.Clock, off int, w uint64) Pointer {
	if w&dirtyBit != 0 {
		t.dev.Persist(clk, off, 8)
		t.dev.CompareAndSwapUint64(clk, off, w, w&^dirtyBit)
	}
	return Decode(w)
}

// Prefetch starts the read of idx's forward pointer and returns when the
// line will be there, for the load (LoadAt) or publish (PublishAt) the
// caller makes once it has done what does not need the pointer: a reader
// tries the SVC, a writer appends the value to the PWB.
func (t *Table) Prefetch(clk *sim.Clock, idx uint64) (ready int64) {
	t.checkIdx(idx)
	return t.dev.Prefetch(clk, t.word(idx), EntrySize)
}

// install runs the durable-linearizable dirty-bit install under the
// publish claim: CAS in the new word with the dirty bit set, persist,
// clear. old is the word as the caller has read it; the first CAS is
// against it, and only a CAS that loses pays for another read. The CAS
// loop only contends with readers' flush-on-read clears, never another
// publisher (those are spun out by the seqlock). It returns the word it
// displaced.
func (t *Table) install(clk *sim.Clock, off int, old, neww uint64) uint64 {
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
// install.
func (t *Table) Publish(clk *sim.Clock, idx uint64, p Pointer) (old Pointer, svc uint64) {
	return t.PublishAt(clk, idx, p, t.Prefetch(clk, idx))
}

// PublishAt is Publish for a caller that issued Prefetch(clk, idx) when it
// learned idx: ready is what that returned. The publish waits for what is
// left of the read, if anything, and loads the word then — whatever
// happened to the entry since the prefetch, it is the current word that
// is displaced and returned.
func (t *Table) PublishAt(clk *sim.Clock, idx uint64, p Pointer, ready int64) (old Pointer, svc uint64) {
	v := t.lockVersion(idx)
	if clk != nil {
		clk.AdvanceTo(ready)
	}
	off := t.word(idx)
	w := t.install(clk, off, t.dev.HeldUint64(off), Encode(p))
	svc = t.svc[idx].Load()
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
func (t *Table) PublishIf(clk *sim.Clock, idx uint64, expect, p Pointer) (ver uint64, ok bool) {
	v := t.lockVersion(idx)
	off := t.word(idx)
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
func (t *Table) PublishIfVersion(clk *sim.Clock, idx uint64, expectVer uint64, p Pointer) bool {
	t.checkIdx(idx)
	if expectVer&1 != 0 || !t.vers[idx].CompareAndSwap(expectVer, expectVer+1) {
		return false
	}
	off := t.word(idx)
	t.install(clk, off, t.dev.LoadUint64(clk, off), Encode(p))
	t.vers[idx].Store(expectVer + 2)
	return true
}

// Clear removes the forward pointer (delete path), returning what Publish
// returns: the old pointer and the SVC handle.
func (t *Table) Clear(clk *sim.Clock, idx uint64) (old Pointer, svc uint64) {
	return t.Publish(clk, idx, Pointer{})
}

// CasSVC atomically replaces the SVC handle if it still equals old (§4.4 —
// lock-free publication): one DRAM access.
func (t *Table) CasSVC(clk *sim.Clock, idx uint64, old, new uint64) bool {
	t.checkIdx(idx)
	if clk != nil {
		clk.Advance(sim.DRAMLatency)
	}
	return t.svc[idx].CompareAndSwap(old, new)
}

// RebuildVolatile reconstructs the volatile state after a crash: the free
// list becomes every slot not in the reachable set, every SVC handle is
// nullified, and unreachable pointers are zeroed and persisted so a later
// crash cannot resurrect them. reachable must report true exactly for the
// HSIT indices found by the key-index scan (§5.5).
// It returns the number of live entries.
func (t *Table) RebuildVolatile(reachable func(idx uint64) bool, scanLimit uint64) int {
	if scanLimit > t.cap {
		scanLimit = t.cap
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.free = t.free[:0]
	for i := range t.svc {
		t.svc[i].Store(0)
	}
	live := 0
	for idx := uint64(0); idx < scanLimit; idx++ {
		if reachable(idx) {
			live++
			continue
		}
		t.dev.StoreUint64(nil, t.word(idx), 0)
		t.dev.Persist(nil, t.word(idx), EntrySize)
		t.free = append(t.free, idx)
	}
	t.bump.Store(scanLimit)
	t.allocated.Store(int64(live))
	return live
}
