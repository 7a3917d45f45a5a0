package ssd

import (
	"bytes"
	"sync"
	"testing"
)

func newDev(size int64) *Device {
	return New(Config{Name: "test", Size: size})
}

func TestWriteAckRead(t *testing.T) {
	d := newDev(1 << 20)
	src := []byte("value-on-flash")
	comps := d.Submit(0, []Request{{Op: OpWrite, Offset: 4096, Data: src}})
	if len(comps) != 1 {
		t.Fatalf("got %d completions", len(comps))
	}
	// Before Ack the data must not be durable.
	buf := make([]byte, len(src))
	d.Submit(comps[0].DoneTime, []Request{{Op: OpRead, Offset: 4096, Data: buf}})
	if bytes.Equal(buf, src) {
		t.Fatal("read observed unacked write")
	}
	d.Ack(comps[0])
	d.Submit(comps[0].DoneTime, []Request{{Op: OpRead, Offset: 4096, Data: buf}})
	if !bytes.Equal(buf, src) {
		t.Fatalf("read after ack = %q, want %q", buf, src)
	}
}

func TestCrashDropsInFlightWrites(t *testing.T) {
	d := newDev(1 << 20)
	c1 := d.Submit(0, []Request{{Op: OpWrite, Offset: 0, Data: []byte("acked")}})
	d.Ack(c1[0])
	d.Submit(0, []Request{{Op: OpWrite, Offset: 512, Data: []byte("inflight")}})
	if d.InFlight() != 1 {
		t.Fatalf("InFlight = %d, want 1", d.InFlight())
	}
	d.Crash()
	if d.InFlight() != 0 {
		t.Fatalf("InFlight after crash = %d", d.InFlight())
	}
	buf := make([]byte, 8)
	d.Submit(0, []Request{{Op: OpRead, Offset: 512, Data: buf}})
	if string(buf) == "inflight" {
		t.Fatal("in-flight write survived crash")
	}
	buf = make([]byte, 5)
	d.Submit(0, []Request{{Op: OpRead, Offset: 0, Data: buf}})
	if string(buf) != "acked" {
		t.Fatalf("acked write lost on crash: %q", buf)
	}
}

func TestDoubleAckPanics(t *testing.T) {
	d := newDev(1 << 20)
	c := d.Submit(0, []Request{{Op: OpWrite, Offset: 0, Data: []byte("x")}})
	d.Ack(c[0])
	defer func() {
		if recover() == nil {
			t.Fatal("double Ack did not panic")
		}
	}()
	d.Ack(c[0])
}

func TestAckReadIsNoop(t *testing.T) {
	d := newDev(1 << 20)
	c := d.Submit(0, []Request{{Op: OpRead, Offset: 0, Data: make([]byte, 8)}})
	d.Ack(c[0]) // must not panic
}

func TestLatencyModel(t *testing.T) {
	d := New(Config{Size: 1 << 20, ReadLatency: 50_000, ReadBandwidth: 1_000_000_000})
	// Single 1KB read at t=0: transfer ~1024ns + 50us latency.
	c := d.Submit(0, []Request{{Op: OpRead, Offset: 0, Data: make([]byte, 1024)}})
	if c[0].DoneTime < 50_000 || c[0].DoneTime > 60_000 {
		t.Fatalf("read DoneTime = %d, want ~51us", c[0].DoneTime)
	}
}

func TestBatchQueueing(t *testing.T) {
	d := New(Config{Size: 1 << 24, ReadLatency: 50_000, ReadBandwidth: 1_000_000_000})
	// 64 x 64KB reads in one batch: later requests queue behind earlier
	// transfers, so tail DoneTime must exceed head DoneTime considerably.
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{Op: OpRead, Offset: int64(i) * 65536, Data: make([]byte, 65536)}
	}
	comps := d.Submit(0, reqs)
	head, tail := comps[0].DoneTime, comps[63].DoneTime
	if tail <= head {
		t.Fatalf("no queueing delay: head=%d tail=%d", head, tail)
	}
	// 64 * 64KB at 1GB/s = ~4.2ms of transfer ahead of the tail.
	if tail < 4_000_000 {
		t.Fatalf("tail too fast: %d", tail)
	}
}

func TestReadsAndWritesUseSeparateChannels(t *testing.T) {
	d := New(Config{Size: 1 << 24, ReadLatency: 1000, WriteLatency: 1000,
		ReadBandwidth: 1_000_000_000, WriteBandwidth: 1_000_000_000})
	// A huge write should not delay a read issued at the same time.
	d.Submit(0, []Request{{Op: OpWrite, Offset: 0, Data: make([]byte, 1<<20)}})
	c := d.Submit(0, []Request{{Op: OpRead, Offset: 1 << 20, Data: make([]byte, 512)}})
	if c[0].DoneTime > 10_000 {
		t.Fatalf("read delayed by concurrent write: %d", c[0].DoneTime)
	}
}

func TestStatsAndWAFAccounting(t *testing.T) {
	d := newDev(1 << 20)
	c := d.Submit(0, []Request{
		{Op: OpWrite, Offset: 0, Data: make([]byte, 4096)},
		{Op: OpWrite, Offset: 4096, Data: make([]byte, 4096)},
	})
	d.Ack(c[0])
	// Second write never acked: not counted as durable bytes.
	s := d.Stats()
	if s.BytesWritten != 4096 {
		t.Fatalf("BytesWritten = %d, want 4096", s.BytesWritten)
	}
	if s.WriteIOs != 2 {
		t.Fatalf("WriteIOs = %d, want 2", s.WriteIOs)
	}
	d.Submit(0, []Request{{Op: OpRead, Offset: 0, Data: make([]byte, 1024)}})
	s = d.Stats()
	if s.BytesRead != 1024 || s.ReadIOs != 1 {
		t.Fatalf("read stats = %+v", s)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := newDev(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range IO did not panic")
		}
	}()
	d.Submit(0, []Request{{Op: OpRead, Offset: 4000, Data: make([]byte, 200)}})
}

func TestConcurrentSubmitters(t *testing.T) {
	d := newDev(1 << 22)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w) * (1 << 19)
			for i := 0; i < 32; i++ {
				data := bytes.Repeat([]byte{byte(w)}, 512)
				c := d.Submit(int64(i), []Request{{Op: OpWrite, Offset: base + int64(i)*512, Data: data}})
				d.Ack(c[0])
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < 8; w++ {
		buf := make([]byte, 512)
		d.Submit(0, []Request{{Op: OpRead, Offset: int64(w) * (1 << 19), Data: buf}})
		if buf[0] != byte(w) || buf[511] != byte(w) {
			t.Fatalf("worker %d data corrupted", w)
		}
	}
}

func TestCompletionOrderWithinBatchIsSubmitOrder(t *testing.T) {
	d := newDev(1 << 20)
	reqs := []Request{
		{Op: OpRead, Offset: 0, Data: make([]byte, 4096), UserData: 1},
		{Op: OpRead, Offset: 4096, Data: make([]byte, 4096), UserData: 2},
		{Op: OpRead, Offset: 8192, Data: make([]byte, 4096), UserData: 3},
	}
	comps := d.Submit(0, reqs)
	for i, c := range comps {
		if c.UserData != uint64(i+1) {
			t.Fatalf("completion %d has UserData %d", i, c.UserData)
		}
		if i > 0 && c.DoneTime < comps[i-1].DoneTime {
			t.Fatal("completions regressed in time within a batch")
		}
	}
}

// TestStagingReuseNeverLeaksAcrossCrash: write-staging buffers are
// recycled at Ack, so a staged write sits in memory that still holds an
// earlier, longer write past its own end. Only the acked write's own
// bytes may ever become durable, whatever else is in the buffer, and a
// write that was staged but never acked leaves nothing behind a Crash.
func TestStagingReuseNeverLeaksAcrossCrash(t *testing.T) {
	d := newDev(1 << 20)
	fill := func(n int, c byte) []byte { return bytes.Repeat([]byte{c}, n) }
	write := func(off int64, data []byte) Completion {
		return d.Submit(0, []Request{{Op: OpWrite, Offset: off, Data: data}})[0]
	}
	read := func(off int64, n int) []byte {
		buf := make([]byte, n)
		d.Submit(0, []Request{{Op: OpRead, Offset: off, Data: buf}})
		return buf
	}

	d.Ack(write(0, fill(4096, 'A'))) // its buffer goes back for reuse
	write(8192, fill(1024, 'B'))     // staged in it, never acked
	d.Crash()
	if got := read(8192, 4096); !bytes.Equal(got, make([]byte, 4096)) {
		t.Fatal("bytes of an un-acked write (or of the buffer it was staged in) reached the device")
	}
	if got := read(0, 4096); !bytes.Equal(got, fill(4096, 'A')) {
		t.Fatal("acked write damaged")
	}

	// A short write staged in a recycled long buffer lands alone.
	d.Ack(write(16384, fill(4096, 'C')))
	d.Ack(write(32768, fill(100, 'D')))
	want := append(fill(100, 'D'), make([]byte, 3996)...)
	if got := read(32768, 4096); !bytes.Equal(got, want) {
		t.Fatal("a recycled staging buffer leaked its old contents past the write's end")
	}
	if d.Stats().BytesWritten != 4096+4096+100 {
		t.Fatalf("BytesWritten = %d", d.Stats().BytesWritten)
	}
}
