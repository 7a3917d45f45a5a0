// Package nvm simulates a byte-addressable non-volatile memory device
// (the role Intel Optane DCPMM plays in the paper).
//
// The simulation preserves the two properties Prism's protocols depend on:
//
//  1. Persistence granularity and ordering. Stores land in a volatile
//     view first; a cache line becomes durable only after an explicit
//     Flush covering it. Crash discards every line that was modified but
//     not flushed, so crash-consistency protocols (backward/forward
//     pointer coupling, dirty-bit flush-on-read) are exercised against
//     genuinely lossy state.
//  2. Cost. Accesses charge the paper's Figure 1 latencies. Loads, the
//     atomic word stores and CASes, and the ChargeRead/ChargeWrite of
//     logically modeled structures also reserve their transfer time on
//     the device's shared bandwidth channel, so concurrent threads
//     contend for it in virtual time. Flush does not: it charges the
//     media write of the lines it pushes out (at 1.9 GB/s) to the
//     flushing thread's clock alone, so NVM's limited write bandwidth
//     slows each writer but writers do not yet queue behind each other's
//     flushes. A read is paid for once per line and where its data is
//     first needed: Prefetch issues one without waiting for it, and
//     HeldUint64 reads a word of a line the thread already holds. Costs
//     go to the *sim.Clock the caller passes; a nil clock makes the
//     access free (setup and test plumbing).
//
// Offsets within the device are stable across crashes, so components
// store offset-based pointers (never Go pointers) in NVM.
package nvm

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"repro/internal/sim"
)

// LineSize is the persistence granularity in bytes (a CPU cache line).
const LineSize = 64

// CacheFillBandwidth is the rate, in bytes/second, at which Store copies
// into the CPU cache: stores pay it, not the media's write bandwidth.
const CacheFillBandwidth = 30_000_000_000

// Config describes the performance envelope of the simulated device.
// Zero-valued fields fall back to the defaults from the paper's Figure 1
// (Intel Optane DCPMM 128 GB).
type Config struct {
	Size           int   // device capacity in bytes
	ReadLatency    int64 // ns per load
	WriteLatency   int64 // ns per store
	FlushLatency   int64 // ns per flushed line (clwb analogue)
	FenceLatency   int64 // ns per fence (sfence analogue)
	ReadBandwidth  int64 // bytes/second
	WriteBandwidth int64 // bytes/second
}

func (c *Config) applyDefaults() {
	if c.ReadLatency == 0 {
		c.ReadLatency = 300 // 0.30 us
	}
	if c.WriteLatency == 0 {
		c.WriteLatency = 90 // 0.09 us
	}
	if c.FlushLatency == 0 {
		c.FlushLatency = 40 // clwb instructions pipeline; per-line cost amortizes
	}
	if c.FenceLatency == 0 {
		c.FenceLatency = 30
	}
	if c.ReadBandwidth == 0 {
		c.ReadBandwidth = 6_800_000_000 // 6.8 GB/s
	}
	if c.WriteBandwidth == 0 {
		c.WriteBandwidth = 1_900_000_000 // 1.9 GB/s
	}
}

// Device is a simulated byte-addressable persistent memory device.
//
// Concurrency contract (mirrors real persistent memory programming):
//   - 8-byte words that multiple threads race on must be accessed only
//     through the atomic LoadUint64 / StoreUint64 / CompareAndSwapUint64.
//   - Bulk Load/Store may be used on regions owned by a single writer at
//     a time; readers of such regions must be ordered after the writer by
//     an atomic publication (for example an HSIT pointer CAS).
type Device struct {
	cfg    Config
	words  []uint64        // live (volatile view), 8-byte aligned backing
	data   []byte          // byte view over words
	shadow []uint64        // durable state
	dirty  []atomic.Uint64 // one bit per line: modified since last flush

	bw sim.Resource

	loads   atomic.Int64
	stores  atomic.Int64
	flushes atomic.Int64
	fences  atomic.Int64
}

// New creates a device of cfg.Size bytes (rounded up to a line multiple).
func New(cfg Config) *Device {
	cfg.applyDefaults()
	if cfg.Size <= 0 {
		panic("nvm: non-positive size")
	}
	lines := (cfg.Size + LineSize - 1) / LineSize
	cfg.Size = lines * LineSize
	nwords := cfg.Size / 8
	d := &Device{
		cfg:    cfg,
		words:  make([]uint64, nwords),
		shadow: make([]uint64, nwords),
		dirty:  make([]atomic.Uint64, (lines+63)/64),
	}
	d.data = unsafe.Slice((*byte)(unsafe.Pointer(&d.words[0])), cfg.Size)
	return d
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int { return d.cfg.Size }

// Config returns the device's configuration, defaults applied.
func (d *Device) Config() Config { return d.cfg }

func (d *Device) check(off, n int) {
	if off < 0 || n < 0 || off+n > d.cfg.Size {
		panic(fmt.Sprintf("nvm: access [%d,%d) out of range (size %d)", off, off+n, d.cfg.Size))
	}
}

// chargeRead and chargeWrite reserve transfer time on the shared device
// channel (so concurrent threads contend for the DIMM bandwidth in
// virtual time) and add the fixed access latency on top.
func (d *Device) chargeRead(clk *sim.Clock, n int) {
	if clk != nil {
		clk.AdvanceTo(d.readyAt(clk, n))
	}
}

// readyAt reserves the transfer of an n-byte read issued at clk's time
// and returns when its data is there. It does not advance clk.
func (d *Device) readyAt(clk *sim.Clock, n int) int64 {
	_, end := d.bw.Acquire(clk.Now(), sim.TransferNS(n, d.cfg.ReadBandwidth))
	return end + d.cfg.ReadLatency
}

func (d *Device) chargeWrite(clk *sim.Clock, n int) {
	if clk == nil {
		return
	}
	_, end := d.bw.Acquire(clk.Now(), sim.TransferNS(n, d.cfg.WriteBandwidth))
	clk.AdvanceTo(end + d.cfg.WriteLatency)
}

// Now returns the virtual time up to which the device's channel has been
// booked, to the bucket: where a caller with no clock of its own starts.
func (d *Device) Now() int64 { return d.bw.Newest() }

// ChargeRead charges the cost of reading n modeled bytes without touching
// the data space. Components that model their NVM residency logically
// (for example the key index, which the paper treats as a self-contained
// crash-consistent structure) use this so their accesses still contend
// for device bandwidth and pay device latency.
func (d *Device) ChargeRead(clk *sim.Clock, n int) { d.chargeRead(clk, n) }

// ChargeWrite is the write-side counterpart of ChargeRead.
func (d *Device) ChargeWrite(clk *sim.Clock, n int) { d.chargeWrite(clk, n) }

// Load copies n = len(dst) bytes at off into dst and charges read cost.
func (d *Device) Load(clk *sim.Clock, off int, dst []byte) {
	copy(dst, d.View(clk, off, len(dst)))
}

// View is Load without the copy: it returns the n bytes at off as a
// slice of the device's volatile view and charges the read cost.
// The caller must not write through it, and it is only as stable as the
// region: it is for a reader that owns the range against concurrent
// Stores for as long as it keeps the slice (the PWB reclaimer's scan).
func (d *Device) View(clk *sim.Clock, off, n int) []byte {
	d.check(off, n)
	d.loads.Add(1)
	d.chargeRead(clk, n)
	return d.data[off : off+n : off+n]
}

// Store copies src to off, marks the covered lines dirty, and charges
// store cost. Stores land in the CPU cache, so they pay store latency
// and cache-fill time but not NVM media bandwidth — the media write is
// charged when Flush pushes the lines out. The data is volatile until
// Flush covers it.
func (d *Device) Store(clk *sim.Clock, off int, src []byte) {
	d.check(off, len(src))
	copy(d.data[off:off+len(src)], src)
	d.markDirty(off, len(src))
	d.stores.Add(1)
	if clk != nil {
		clk.Advance(d.cfg.WriteLatency + sim.TransferNS(len(src), CacheFillBandwidth))
	}
}

func (d *Device) wordAt(off int) *atomic.Uint64 {
	if off%8 != 0 {
		panic(fmt.Sprintf("nvm: unaligned atomic access at %d", off))
	}
	d.check(off, 8)
	return (*atomic.Uint64)(unsafe.Pointer(&d.words[off/8]))
}

// LoadUint64 atomically loads the 8-byte word at off (must be 8-aligned).
func (d *Device) LoadUint64(clk *sim.Clock, off int) uint64 {
	v := d.wordAt(off).Load()
	d.loads.Add(1)
	d.chargeRead(clk, 8)
	return v
}

// Prefetch issues the read of [off, off+n) at clk's time and returns when
// the data will be there (0 for a nil clk). It is the read's one load and
// its one reservation on the channel, and it advances nobody: the thread
// goes on with work that does not need the line, and pays what is left of
// the read — clk.AdvanceTo(ready) — where it first uses it. A prefetch
// carries cost, never data: the words are loaded with HeldUint64 when
// they are used, as a coherent cache would serve them.
func (d *Device) Prefetch(clk *sim.Clock, off, n int) (ready int64) {
	d.check(off, n)
	d.loads.Add(1)
	if clk == nil {
		return 0
	}
	return d.readyAt(clk, n)
}

// HeldUint64 atomically loads the word at off for a thread that holds its
// line — it has paid for a read of it (a Prefetch it waited out, a load)
// or its CAS owns it — in the same operation step, with no device wait in
// between. Such a read is served by the cache: free, and not a load.
func (d *Device) HeldUint64(off int) uint64 { return d.wordAt(off).Load() }

// StoreUint64 atomically stores v at off and marks the line dirty.
func (d *Device) StoreUint64(clk *sim.Clock, off int, v uint64) {
	d.wordAt(off).Store(v)
	d.markDirty(off, 8)
	d.stores.Add(1)
	d.chargeWrite(clk, 8)
}

// CompareAndSwapUint64 atomically CASes the word at off.
func (d *Device) CompareAndSwapUint64(clk *sim.Clock, off int, old, new uint64) bool {
	ok := d.wordAt(off).CompareAndSwap(old, new)
	if ok {
		d.markDirty(off, 8)
		d.stores.Add(1)
	}
	d.chargeWrite(clk, 8)
	return ok
}

func (d *Device) markDirty(off, n int) {
	first := off / LineSize
	last := (off + n - 1) / LineSize
	for l := first; l <= last; l++ {
		d.dirty[l/64].Or(1 << (uint(l) % 64))
	}
}

// Flush persists every line overlapping [off, off+n): line contents are
// copied to the durable state and the dirty bits cleared. It charges one
// FlushLatency for the flush itself, one per flushed line, and the lines'
// transfer time at the write bandwidth, all to clk alone — not through
// the shared channel (see the package comment). A flush of clean lines
// is free of transfer time but still charges its own latency, like a
// clwb that misses dirty data.
func (d *Device) Flush(clk *sim.Clock, off, n int) {
	if n <= 0 {
		return
	}
	d.Writeback(clk, off, n)
	if clk != nil {
		clk.Advance(d.cfg.FlushLatency)
	}
}

// Writeback is the per-line part of a Flush: it persists the dirty lines
// overlapping [off, off+n) and charges each its FlushLatency and transfer
// time, but not the flush's own FlushLatency. That one is paid by the
// Flush that completes the same persist before its Fence, so a persist
// whose lines are pushed out in two parts (pwb.Buffer.AppendAt: the body,
// then the header once the seal may start) costs what one Flush of them
// all would, but for each part's transfer time rounding up to the
// nanosecond on its own.
func (d *Device) Writeback(clk *sim.Clock, off, n int) {
	if n <= 0 {
		return
	}
	d.check(off, n)
	first := off / LineSize
	last := (off + n - 1) / LineSize
	var flushed int
	for l := first; l <= last; l++ {
		mask := uint64(1) << (uint(l) % 64)
		if d.dirty[l/64].Load()&mask == 0 {
			continue
		}
		d.dirty[l/64].And(^mask)
		w := l * LineSize / 8
		for i := 0; i < LineSize/8; i++ {
			v := (*atomic.Uint64)(unsafe.Pointer(&d.words[w+i])).Load()
			(*atomic.Uint64)(unsafe.Pointer(&d.shadow[w+i])).Store(v)
		}
		flushed++
	}
	d.flushes.Add(int64(flushed))
	if clk != nil {
		clk.Advance(int64(flushed)*d.cfg.FlushLatency + sim.TransferNS(flushed*LineSize, d.cfg.WriteBandwidth))
	}
}

// Fence charges ordering cost. In this model Flush is synchronous, so
// Fence provides no additional semantics — only its cost — but callers
// use it at exactly the points real code would issue sfence, which keeps
// the protocol code faithful.
func (d *Device) Fence(clk *sim.Clock) {
	d.fences.Add(1)
	if clk != nil {
		clk.Advance(d.cfg.FenceLatency)
	}
}

// Persist is the common flush-then-fence sequence.
func (d *Device) Persist(clk *sim.Clock, off, n int) {
	d.Flush(clk, off, n)
	d.Fence(clk)
}

// Crash simulates a power failure: the volatile view reverts to the last
// flushed state and all dirty bits clear. The caller must guarantee
// quiescence (no in-flight accesses) — exactly like a real machine reset.
func (d *Device) Crash() {
	copy(d.words, d.shadow)
	for i := range d.dirty {
		d.dirty[i].Store(0)
	}
}

// PersistAll flushes the entire device (clean-shutdown analogue). Free.
func (d *Device) PersistAll() {
	for l := 0; l < d.cfg.Size/LineSize; l++ {
		mask := uint64(1) << (uint(l) % 64)
		if d.dirty[l/64].Load()&mask == 0 {
			continue
		}
		d.dirty[l/64].And(^mask)
		w := l * LineSize / 8
		copy(d.shadow[w:w+LineSize/8], d.words[w:w+LineSize/8])
	}
}

// readPersisted copies the durable (post-crash) contents at off into dst.
// Test helper; charges nothing.
func (d *Device) readPersisted(off int, dst []byte) {
	d.check(off, len(dst))
	src := unsafe.Slice((*byte)(unsafe.Pointer(&d.shadow[0])), d.cfg.Size)
	copy(dst, src[off:off+len(dst)])
}

// Stats reports cumulative operation counts.
type Stats struct {
	Loads, Stores, Flushes, Fences int64
}

// Stats returns a snapshot of the device's operation counters.
func (d *Device) Stats() Stats {
	return Stats{
		Loads:   d.loads.Load(),
		Stores:  d.stores.Load(),
		Flushes: d.flushes.Load(),
		Fences:  d.fences.Load(),
	}
}
