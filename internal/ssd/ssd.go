// Package ssd simulates an NVMe flash SSD with an asynchronous
// submission/completion interface (the io_uring analogue the paper's
// Value Storage is built on).
//
// The model captures the three SSD properties the evaluation depends on:
//
//   - Bandwidth vs. latency trade-off. Each direction has a shared
//     bandwidth channel in virtual time; a transfer takes the capacity
//     earlier IO left, so large batches raise utilization *and* tail
//     latency — the queueing effect of §4.2.
//   - Durability boundary. A write is durable only once the submitter has
//     observed its completion and acknowledged it (Ack). Crash drops all
//     unacknowledged writes, modeling in-flight IO lost on power failure.
//   - Write amplification accounting. The device counts every byte it is
//     asked to write, so SSD-level WAF (Figure 12) is measured, not
//     estimated.
package ssd

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Config describes the simulated device. Zero fields default to the
// paper's Figure 1 numbers for a Samsung 980 PRO (PCIe 4 flash SSD).
type Config struct {
	Name           string
	Size           int64 // capacity in bytes
	ReadLatency    int64 // ns
	WriteLatency   int64 // ns
	ReadBandwidth  int64 // bytes/second
	WriteBandwidth int64 // bytes/second
}

func (c *Config) applyDefaults() {
	if c.ReadLatency == 0 {
		c.ReadLatency = 50_000 // 50 us
	}
	if c.WriteLatency == 0 {
		c.WriteLatency = 20_000 // 20 us
	}
	if c.ReadBandwidth == 0 {
		c.ReadBandwidth = 7_000_000_000 // 7 GB/s
	}
	if c.WriteBandwidth == 0 {
		c.WriteBandwidth = 5_000_000_000 // 5 GB/s
	}
}

// Op is the IO direction.
type Op uint8

// Request operations.
const (
	OpRead Op = iota
	OpWrite
)

// Request is one entry for the submission queue.
type Request struct {
	Op       Op
	Offset   int64
	Data     []byte // read destination or write source; length = IO size
	UserData uint64 // opaque tag echoed in the Completion
}

// Completion reports the virtual-time schedule of one request.
type Completion struct {
	UserData   uint64
	Op         Op
	Offset     int64
	Len        int
	SubmitTime int64 // when the batch was submitted
	StartTime  int64 // when the device began servicing the request
	DoneTime   int64 // when the completion was posted

	token uint64 // write-pending handle, 0 for reads
}

type pendingWrite struct {
	off  int64
	data []byte
}

// Device is one simulated SSD.
type Device struct {
	cfg Config

	mu      sync.Mutex
	durable []byte
	pending map[uint64]pendingWrite
	nextTok uint64
	staging [][]byte // buffers of acked writes, reused to stage later ones

	readBW  sim.Resource
	writeBW sim.Resource

	bytesWritten atomic.Int64 // acked write bytes (device-level WAF numerator)
	bytesRead    atomic.Int64
	readIOs      atomic.Int64
	writeIOs     atomic.Int64
	inFlight     atomic.Int64
}

// New creates a device of cfg.Size bytes.
func New(cfg Config) *Device {
	cfg.applyDefaults()
	if cfg.Size <= 0 {
		panic("ssd: non-positive size")
	}
	return &Device{
		cfg:     cfg,
		durable: make([]byte, cfg.Size),
		pending: make(map[uint64]pendingWrite),
	}
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int64 { return d.cfg.Size }

// Config returns the device's effective configuration (defaults applied).
// Tier selection reads it to rank devices by speed and capacity.
func (d *Device) Config() Config { return d.cfg }

func (d *Device) check(off int64, n int) {
	if off < 0 || n < 0 || off+int64(n) > d.cfg.Size {
		panic(fmt.Sprintf("ssd %q: access [%d,%d) out of range (size %d)", d.cfg.Name, off, off+int64(n), d.cfg.Size))
	}
}

// Submit places a batch on the submission queue at virtual time at and
// returns the completion schedule for every request, in order.
//
// Reads copy durable data into Request.Data immediately; their DoneTime
// says when that data would have been available. Writes are staged: the
// caller must observe the completion (advance its clock to DoneTime) and
// call Ack before the data is durable. This mirrors asynchronous IO where
// acting on a write before its completion is a protocol bug.
func (d *Device) Submit(at int64, reqs []Request) []Completion {
	comps := make([]Completion, len(reqs))
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, r := range reqs {
		comps[i] = d.schedule(at, r)
	}
	return comps
}

// Write places one write on the submission queue at virtual time at,
// exactly as Submit would, and returns its completion: Submit for a
// writer with a single request, which needs no completion slice.
func (d *Device) Write(at int64, r Request) Completion {
	if r.Op != OpWrite {
		panic("ssd: Write of a read request")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.schedule(at, r)
}

// Read places a batch of reads on the submission queue at virtual time at,
// exactly as Submit would, and returns the latest DoneTime of the batch (at
// itself for an empty one). A read is never Acked, so its caller needs no
// Completion: this is Submit for a reader that keeps none.
func (d *Device) Read(at int64, reqs []Request) int64 {
	done := at
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range reqs {
		if r.Op != OpRead {
			panic("ssd: Read of a write request")
		}
		done = max(done, d.schedule(at, r).DoneTime)
	}
	return done
}

// schedule books one request submitted at virtual time at. The caller
// holds d.mu.
func (d *Device) schedule(at int64, r Request) Completion {
	d.check(r.Offset, len(r.Data))
	c := Completion{
		UserData:   r.UserData,
		Op:         r.Op,
		Offset:     r.Offset,
		Len:        len(r.Data),
		SubmitTime: at,
	}
	switch r.Op {
	case OpRead:
		start, end := d.readBW.Acquire(at, sim.TransferNS(len(r.Data), d.cfg.ReadBandwidth))
		c.StartTime, c.DoneTime = start, end+d.cfg.ReadLatency
		copy(r.Data, d.durable[r.Offset:r.Offset+int64(len(r.Data))])
		d.bytesRead.Add(int64(len(r.Data)))
		d.readIOs.Add(1)
	case OpWrite:
		start, end := d.writeBW.Acquire(at, sim.TransferNS(len(r.Data), d.cfg.WriteBandwidth))
		c.StartTime, c.DoneTime = start, end+d.cfg.WriteLatency
		d.nextTok++
		c.token = d.nextTok
		buf := d.stagingBuf(len(r.Data))
		copy(buf, r.Data)
		d.pending[c.token] = pendingWrite{off: r.Offset, data: buf}
		d.inFlight.Add(1)
		d.writeIOs.Add(1)
	default:
		panic("ssd: unknown op")
	}
	return c
}

// stagingBuf returns an n-byte buffer to stage a write in, recycled from
// an acked write when one is large enough. The caller holds d.mu and
// overwrites all n bytes.
func (d *Device) stagingBuf(n int) []byte {
	if k := len(d.staging); k > 0 {
		buf := d.staging[k-1]
		d.staging = d.staging[:k-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]byte, n)
}

// Ack acknowledges an observed write completion, making the data durable.
// Acking a read is a no-op. Acking twice panics (protocol bug).
func (d *Device) Ack(c Completion) {
	if c.Op != OpWrite {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.pending[c.token]
	if !ok {
		panic("ssd: Ack of unknown or already-acked write")
	}
	delete(d.pending, c.token)
	copy(d.durable[p.off:p.off+int64(len(p.data))], p.data)
	d.staging = append(d.staging, p.data)
	d.bytesWritten.Add(int64(len(p.data)))
	d.inFlight.Add(-1)
}

// InFlight reports the number of staged, unacknowledged writes. The Value
// Storage uses it to prefer idle devices (§5.2).
func (d *Device) InFlight() int { return int(d.inFlight.Load()) }

// Now returns the virtual time up to which the device's channels have
// been booked, to the bucket: where a caller with no clock of its own
// (a recovery scan) starts.
func (d *Device) Now() int64 { return max(d.readBW.Newest(), d.writeBW.Newest()) }

// Crash drops every staged, unacknowledged write — the in-flight IO a
// power failure would lose. Durable contents are untouched.
func (d *Device) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inFlight.Add(-int64(len(d.pending)))
	d.pending = make(map[uint64]pendingWrite)
}

// Stats is a snapshot of device counters.
type Stats struct {
	BytesRead    int64
	BytesWritten int64 // durable (acked) bytes — WAF numerator
	ReadIOs      int64
	WriteIOs     int64
}

// Stats returns the device counters.
func (d *Device) Stats() Stats {
	return Stats{
		BytesRead:    d.bytesRead.Load(),
		BytesWritten: d.bytesWritten.Load(),
		ReadIOs:      d.readIOs.Load(),
		WriteIOs:     d.writeIOs.Load(),
	}
}
