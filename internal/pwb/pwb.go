// Package pwb implements the Persistent Write Buffer of §4.3: a
// per-thread, append-only ring of value records on NVM that makes every
// write durable off the SSD's critical path.
//
// Records are package record's, the layout Value Storage shares: a
// record is live iff it is well-coupled (record.Coupled), its backward
// pointer naming the HSIT entry whose forward pointer refers back to
// it. A record never straddles the ring end; the remainder of a lap too
// short for the next record is a pad. Because writes are append-only, old
// versions are never overwritten in place; they simply become ill-coupled
// once the HSIT entry moves on, which is what makes PWB crash consistency
// "easy and efficient" (§4.3).
//
// The ring is single-writer (its owning thread appends) and multi-reader
// (Get paths and the background reclaimer read records). Space is
// released strictly in order, and only between reclaim passes: epoch
// grace turns a pass's scanned range into a Grant, and the single scan
// owner applies pending grants via ApplyGrants before it snapshots the
// next scan range. The tail therefore never moves while a scan is in
// flight, so the physical bytes under a scan can never be recycled and
// re-appended (the aliasing that caused the seed's reclamation race).
//
// Space is released at a virtual time — the reclaim pass's clock when it
// had migrated the last live record out of the range — and that time
// travels with the space: Scanned takes it, ApplyGrants stamps it on the
// ring segments the pass's grant frees, and Room hands it
// to the next append that lands there, so that an append can be kept from
// preceding, in virtual time, the release of the bytes it reuses. An
// owner that finds the ring full sleeps in Wait until the tail moves (or
// Wake, or Interrupt).
//
// Release lags the scan by an epoch grace period, so the scan does not
// start at the tail: the ring keeps a reclaim cursor, owned by the same
// single scan owner. A pass scans [cursor, min(Head, unpublishedFloor))
// (ScanRange) and moves the cursor to the end of that range (Scanned)
// only once every live record in it has been migrated; a pass that
// aborts leaves the cursor alone and the next one re-scans. Every
// appended record is therefore scanned by exactly one successful pass,
// however far the tail trails behind.
package pwb

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/nvm"
	"repro/internal/record"
	"repro/internal/sim"
)

// ErrFull is returned by Append when the ring has insufficient space.
// The engine asks Room first and, on a full ring, kicks reclamation and
// sleeps in Wait (§4.3: the application thread uses the remaining space
// while reclaiming).
var ErrFull = errors.New("pwb: buffer full")

// Buffer is one thread's persistent write buffer over the NVM region
// [base, base+size).
type Buffer struct {
	dev  *nvm.Device
	base int
	size uint64

	head atomic.Uint64 // logical append cursor (monotonic)
	tail atomic.Uint64 // logical release cursor (monotonic)

	// releasable is the highest logical cursor whose space has been
	// granted back by epoch grace (Grant). Only the single scan owner
	// folds it into tail (ApplyGrants), so the tail is frozen for the
	// whole duration of any scan pass.
	releasable atomic.Uint64

	// unpublished is the logical cursor of the owner's in-flight append
	// whose HSIT forward pointer has not been published yet, or noPending.
	// The reclaimer clamps its scan below it: a record in this window
	// looks ill-coupled (its publish hasn't landed), and classifying it
	// as garbage would release a slot that a live pointer is about to
	// reference forever.
	unpublished atomic.Uint64

	// cursor is the reclaim cursor: every record below it has been scanned
	// and, if it was live, migrated. A plain field — only the single scan
	// owner touches it. tail <= releasable <= cursor <= head.
	cursor uint64

	// scannedAt is the virtual time at which the newest successful pass
	// ended (Scanned), and releasedAt[s] the virtual time at which the
	// bytes of ring segment s (1/relSegments of the ring) were last
	// released, zero while they have never been reused. Both only ever err
	// late: a grant applied after a newer pass has finished takes that
	// pass's time, and a segment's stamp covers the bytes at its start a
	// segment early.
	scannedAt  atomic.Int64
	releasedAt [relSegments]atomic.Int64

	// The owner's sleep while the ring is full. seq counts the events worth
	// waking for (Wake); mu orders them against a sleeper's last look.
	mu          sync.Mutex
	cond        sync.Cond
	seq         atomic.Uint64
	interrupted bool // guarded by mu
}

// relSegments is the resolution at which the ring remembers when its
// space was released.
const relSegments = 256

// noPending is the unpublished-floor sentinel meaning "no append is
// awaiting its HSIT publish".
const noPending = ^uint64(0)

// NewBuffer creates a buffer over [base, base+size) of dev. base and size
// must be 16-byte aligned, size >= 64.
func NewBuffer(dev *nvm.Device, base, size int) *Buffer {
	if base%record.Align != 0 || size%record.Align != 0 {
		panic("pwb: unaligned region")
	}
	if size < 64 {
		panic("pwb: region too small")
	}
	if base+size > dev.Size() {
		panic("pwb: region exceeds device")
	}
	b := &Buffer{dev: dev, base: base, size: uint64(size)}
	b.cond.L = &b.mu
	b.unpublished.Store(noPending)
	return b
}

// Size returns the ring capacity in bytes.
func (b *Buffer) Size() int { return int(b.size) }

// Used returns the number of bytes between tail and head.
func (b *Buffer) Used() int { return int(b.head.Load() - b.tail.Load()) }

// Utilization returns Used/Size in [0,1].
func (b *Buffer) Utilization() float64 { return float64(b.Used()) / float64(b.size) }

// Head returns the logical append cursor (reclaimer scan upper bound).
func (b *Buffer) Head() uint64 { return b.head.Load() }

// Tail returns the logical release cursor (reclaimer scan lower bound).
func (b *Buffer) Tail() uint64 { return b.tail.Load() }

// pos maps a logical cursor to a physical byte offset on the device.
func (b *Buffer) pos(logical uint64) int { return b.base + int(logical%b.size) }

// GlobalOff maps a logical cursor to the stable device offset stored in
// HSIT forward pointers.
func (b *Buffer) GlobalOff(logical uint64) uint64 { return uint64(b.pos(logical)) }

// Append durably writes a value record for hsitIdx and returns the
// record's device offset (what the HSIT forward pointer should hold) and
// its logical cursor. The record is flushed and fenced before return, so
// the caller may immediately publish it (§5.4: persist value before
// pointer). Only the owning thread may call Append.
//
// The record is born with its HSIT publish pending: the caller MUST call
// Published after installing the forward pointer (or after deciding not
// to). Until then the reclaimer's scan bound (unpublishedFloor) excludes
// the record, so a pass that would otherwise see it as ill-coupled
// cannot release its space out from under the soon-to-land pointer.
// Several appends may share one publish window: the floor sticks to the
// first record appended since the last Published call, so a batch of
// appends followed by a single Published is covered end to end.
func (b *Buffer) Append(clk *sim.Clock, hsitIdx uint64, value []byte) (devOff uint64, logical uint64, err error) {
	return b.AppendAt(clk, hsitIdx, value, 0)
}

// AppendAt is Append for an owner that starts the record's body before it
// knows hsitIdx (a put learns it from its key index lookup, which ended at
// sealAt). Only the 16-byte header names hsitIdx, so the body — a pad if
// the lap needs one, the value's stores and the writeback of every line
// after the header's — is charged on clk from its time, and the seal — the
// header's store, its line's flush and the one fence — from the later of
// the body's end and sealAt. The two parts cost one persist of the record,
// but for a nanosecond of transfer rounding at some line counts (none for
// a 1 KiB value), and the device sees the same persist order: the value's
// lines, then the header's, then the fence, all before the caller's
// publish.
func (b *Buffer) AppendAt(clk *sim.Clock, hsitIdx uint64, value []byte, sealAt int64) (devOff uint64, logical uint64, err error) {
	need := uint64(record.Size(len(value)))
	if need > b.size {
		return 0, 0, fmt.Errorf("pwb: value of %d bytes exceeds buffer capacity %d", len(value), b.size)
	}
	head := b.head.Load()
	pad, ok := b.fit(head, need)
	if !ok {
		return 0, 0, ErrFull
	}
	var hdr [record.HeaderSize]byte
	if pad > 0 {
		record.PutPad(hdr[:], int(pad))
		b.dev.Store(clk, b.pos(head), hdr[:])
		b.dev.Persist(clk, b.pos(head), record.HeaderSize)
		head += pad
		b.head.Store(head)
	}

	off := b.pos(head)
	b.dev.Store(clk, off+record.HeaderSize, value)
	next := (off/nvm.LineSize + 1) * nvm.LineSize // the first line after the header's
	b.dev.Writeback(clk, next, off+record.HeaderSize+len(value)-next)
	if clk != nil {
		clk.AdvanceTo(sealAt)
	}
	record.PutHeader(hdr[:], hsitIdx, len(value))
	b.dev.Store(clk, off, hdr[:])
	b.dev.Persist(clk, off, record.HeaderSize)

	// Publish-pending mark BEFORE the head advance: a reclaimer that
	// observes the new head is guaranteed to also observe the mark (or
	// the completed publish that clears it). The mark is a floor, not a
	// single-record cursor: when the owner appends several records before
	// calling Published (a PutBatch), the first unpublished record keeps
	// the floor, so the reclaimer's scan cap excludes the whole window.
	if b.unpublished.Load() == noPending {
		b.unpublished.Store(head)
	}
	b.head.Store(head + need)
	return uint64(off), head, nil
}

// fit reports whether a record of need bytes appended at head fits below
// the tail, and the padding it takes first: a record never straddles the
// ring end, so the remainder of a lap too short for it is padded out.
func (b *Buffer) fit(head, need uint64) (pad uint64, ok bool) {
	if rem := b.size - head%b.size; rem < need {
		pad = rem
	}
	return pad, b.size-(head-b.tail.Load()) >= pad+need
}

// Room reports whether Append would find room for a value of valueLen
// bytes, and the virtual time at which the ring space the record would
// land in was released (zero for space never used before). Only the
// owning thread may call it. An owner that does not advance its clock to
// releasedAt before it appends writes into space that, in virtual time,
// the reclaimer has not handed back yet.
func (b *Buffer) Room(valueLen int) (releasedAt int64, ok bool) {
	need := uint64(record.Size(valueLen))
	if need > b.size {
		return 0, true // no wait helps: Append reports the oversized value
	}
	head := b.head.Load()
	pad, ok := b.fit(head, need)
	if !ok {
		return 0, false
	}
	return b.releasedAt[b.segment(head+pad+need-1)%relSegments].Load(), true
}

// segment numbers the ring segments along the logical cursor: segment n
// is ring segment n%relSegments, one lap later for every relSegments, so
// a released range is a run of consecutive numbers even across the ring
// end.
func (b *Buffer) segment(logical uint64) uint64 { return logical * relSegments / b.size }

// Published clears the publish-pending mark set by Append. Only the
// owning thread may call it, after the forward pointers of every record
// appended since the previous Published call are installed (the
// reclaimer observing the cleared mark is thereby guaranteed to observe
// the published pointers too).
func (b *Buffer) Published() {
	b.unpublished.Store(noPending)
}

// unpublishedFloor returns the logical cursor of the owner's append
// whose HSIT publish is still pending, or ^uint64(0) when there is none.
// The reclaimer caps its scan at min(Head, unpublishedFloor): reading
// Head first and the floor second guarantees every append below the cap
// has a visible forward pointer.
func (b *Buffer) unpublishedFloor() uint64 { return b.unpublished.Load() }

// ScanRange returns the range the next reclaim pass scans: from the
// reclaim cursor to min(Head, unpublishedFloor), which excludes the
// owner's append-to-publish window — a record whose HSIT forward pointer
// has not landed yet looks ill-coupled, and treating it as garbage would
// release a slot the imminent publish will reference forever. Only the
// single scan owner may call it, after ApplyGrants.
func (b *Buffer) ScanRange() (from, to uint64) {
	to = b.head.Load() // before the floor: see unpublishedFloor
	if f := b.unpublished.Load(); f < to {
		to = f
	}
	return b.cursor, to
}

// Scanned moves the reclaim cursor to to, the end of a ScanRange whose
// live records have all been migrated, the last of them by virtual time
// at: the time the grants that follow release the range at. The scan
// owner calls it before it hands the range to epoch grace (Grant(to)); a
// pass that aborted must not call it, so the range is scanned again.
func (b *Buffer) Scanned(to uint64, at int64) {
	b.cursor = to
	if at > b.scannedAt.Load() {
		b.scannedAt.Store(at)
	}
}

// AwaitingGrace reports whether a scanned range is still on its way
// through epoch grace: its Grant has not arrived. Only the single scan
// owner may call it.
func (b *Buffer) AwaitingGrace() bool { return b.cursor > b.releasable.Load() }

// ReadValue reads the value payload of the record at devOff (from an HSIT
// forward pointer) into a new slice. valueLen comes from the pointer.
//
// Contract: the caller must hold an epoch guard (epoch.Participant.Enter)
// across the pointer load and this read — released ring space is recycled
// only after two-epoch grace, so the guard keeps the bytes from being
// re-appended mid-read. Because the pointer may still be superseded
// concurrently, the caller must re-validate the HSIT pointer after the
// read and retry on mismatch; ReadValue itself does not parse or verify
// the record header. A nil clk performs the read without charging device
// time (offline checkers and tests).
func (b *Buffer) ReadValue(clk *sim.Clock, devOff uint64, valueLen int) []byte {
	return b.AppendValue(clk, devOff, valueLen, make([]byte, 0, valueLen))
}

// AppendValue is ReadValue into the caller's buffer: it appends the value
// payload to dst and returns the extended slice, allocating only when dst
// lacks the room.
func (b *Buffer) AppendValue(clk *sim.Clock, devOff uint64, valueLen int, dst []byte) []byte {
	buf := slices.Grow(dst, valueLen)[:len(dst)+valueLen]
	b.dev.Load(clk, int(devOff)+record.HeaderSize, buf[len(dst):])
	return buf
}

// Record is one entry yielded by Scan. Value aliases the ring — it is a
// view, not a copy — and is valid only while the scanned range is: until
// the pass that scanned it retires the range (Grant). It must not be
// written through.
type Record struct {
	HSITIdx uint64
	DevOff  uint64 // device offset of the record (HSIT pointer value)
	Value   []byte
}

// ErrCorruptRecord is returned by Scan when a header parses as neither a
// record nor a pad, or its footprint runs past the scanned range or the
// ring end. A torn or recycled header must surface as an error the caller
// can abort on, not a process abort, and a bad length must not make Scan
// step over the records behind it.
var ErrCorruptRecord = errors.New("pwb: corrupt record")

// Scan parses records in logical range [from, to), calling fn for each
// value record (padding is skipped). It is used by the background
// reclaimer (§5.2) to collect candidate values; the caller decides
// liveness via HSIT well-coupledness.
//
// Contract: [from, to) must be a range whose bytes are stable for as
// long as the caller keeps any Record.Value — from at or above the ring
// tail (which only the single scan owner may advance, via ApplyGrants
// between passes) and to at or below min(Head, unpublishedFloor); the
// reclaimer passes ScanRange. A nil clk performs the reads without
// charging device time; the reclaimer charges the whole range as one
// bulk sequential read instead. If a header is corrupt, Scan stops and
// returns an error wrapping ErrCorruptRecord — the caller should abort
// the pass without moving the cursor or releasing any space, so the torn
// range is simply re-scanned later.
func (b *Buffer) Scan(clk *sim.Clock, from, to uint64, fn func(r Record) bool) error {
	var hdr [record.HeaderSize]byte
	for cur := from; cur < to; {
		off := b.pos(cur)
		b.dev.Load(clk, off, hdr[:])
		backptr, vlen, kind := record.ParseHeader(hdr[:])
		size := uint64(record.Size(vlen))
		if kind == record.Invalid || size > to-cur || cur%b.size+size > b.size {
			return fmt.Errorf("%w at logical %d (%d bytes)", ErrCorruptRecord, cur, size)
		}
		if kind == record.Value && !fn(Record{HSITIdx: backptr, DevOff: uint64(off), Value: b.dev.View(clk, off+record.HeaderSize, vlen)}) {
			return nil
		}
		cur += size
	}
	return nil
}

// Grant records that the ring space below newTail — a range handed to
// Scanned before — has passed epoch grace and may be recycled. It does
// NOT move the tail: the grant takes effect only when the single scan
// owner calls ApplyGrants between passes. Safe to call from any goroutine
// (epoch-retire callbacks run wherever Collect happens to be called).
// Stale grants never regress the tail.
func (b *Buffer) Grant(newTail uint64) {
	for g := b.releasable.Load(); newTail > g && !b.releasable.CompareAndSwap(g, newTail); g = b.releasable.Load() {
	}
}

// ApplyGrants folds all pending grants into the tail, making the space
// appendable, stamps the freed segments with the grants' virtual time
// (see Room) and wakes an owner sleeping in Wait. Only the single scan
// owner (whoever holds the buffer's pass lock) may call it, and only
// between scan passes: freezing the tail for the whole duration of a pass
// is what keeps the scanned bytes stable and the physical DevOff coupling
// check free of ring-wrap aliasing.
func (b *Buffer) ApplyGrants() {
	g, t := b.releasable.Load(), b.tail.Load()
	if g <= t {
		return
	}
	// Read after the grant: the pass stored its end time (Scanned) before
	// it retired the range, so this is that pass's time or a later one's.
	at := b.scannedAt.Load()
	for seg, last := b.segment(t), b.segment(g-1); seg <= last; seg++ {
		if s := &b.releasedAt[seg%relSegments]; s.Load() < at {
			s.Store(at)
		}
	}
	b.tail.Store(g) // after the stamps: an owner that sees the room sees its release time
	b.Wake()
}

// WaitSeq returns the ticket for Wait. The owner takes it before the look
// at the ring that finds it full, so no wake-up after that look is lost.
func (b *Buffer) WaitSeq() uint64 { return b.seq.Load() }

// Wait blocks until a Wake after the WaitSeq call that returned seq: the
// tail moved (ApplyGrants), or the scan owner finished a pass that
// released nothing and wants the owner to look again. It returns false
// once the buffer is interrupted.
func (b *Buffer) Wait(seq uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.seq.Load() == seq && !b.interrupted {
		b.cond.Wait()
	}
	return !b.interrupted
}

// Wake ends every Wait whose ticket was taken before the call.
func (b *Buffer) Wake() {
	b.mu.Lock()
	b.seq.Add(1)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Interrupt ends every Wait, present and future, with false: the store is
// closing or has crashed, and no reclaimer will move the tail again. Reset
// lifts it.
func (b *Buffer) Interrupt() {
	b.mu.Lock()
	b.interrupted = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Reset empties the ring. Recovery drains every live PWB value into
// Value Storage and then resets the cursors, because the volatile
// head/tail are unknown after a crash (§5.5). Pending grants, release
// times, the reclaim cursor, the publish-pending mark and an Interrupt
// are volatile state of the old incarnation and are discarded. Quiescent
// callers only.
func (b *Buffer) Reset() {
	b.head.Store(0)
	b.tail.Store(0)
	b.releasable.Store(0)
	b.scannedAt.Store(0)
	for i := range b.releasedAt {
		b.releasedAt[i].Store(0)
	}
	b.cursor = 0
	b.unpublished.Store(noPending)
	b.mu.Lock()
	b.interrupted = false
	b.mu.Unlock()
}
