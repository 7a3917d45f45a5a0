package nvm

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newDev(size int) *Device {
	return New(Config{Size: size})
}

func TestStoreLoadRoundTrip(t *testing.T) {
	d := newDev(4096)
	src := []byte("hello, persistent world")
	d.Store(nil, 100, src)
	dst := make([]byte, len(src))
	d.Load(nil, 100, dst)
	if !bytes.Equal(src, dst) {
		t.Fatalf("round trip mismatch: %q != %q", src, dst)
	}
}

func TestUnflushedDataLostOnCrash(t *testing.T) {
	d := newDev(4096)
	d.Store(nil, 0, []byte("durable"))
	d.Persist(nil, 0, 7)
	d.Store(nil, 256, []byte("volatile"))
	d.Crash()

	got := make([]byte, 7)
	d.Load(nil, 0, got)
	if string(got) != "durable" {
		t.Fatalf("flushed data lost: %q", got)
	}
	got = make([]byte, 8)
	d.Load(nil, 256, got)
	if string(got) == "volatile" {
		t.Fatal("unflushed data survived crash")
	}
}

func TestFlushGranularityIsLine(t *testing.T) {
	d := newDev(4096)
	// Two values in the same line: flushing one persists the line.
	d.Store(nil, 0, []byte{1, 2, 3, 4})
	d.Store(nil, 8, []byte{5, 6, 7, 8})
	d.Flush(nil, 0, 4)
	d.Fence(nil)
	d.Crash()
	got := make([]byte, 4)
	d.Load(nil, 8, got)
	if !bytes.Equal(got, []byte{5, 6, 7, 8}) {
		t.Fatalf("same-line data not persisted by line flush: %v", got)
	}
}

func TestPartialFlushAcrossLines(t *testing.T) {
	d := newDev(4096)
	buf := make([]byte, 3*LineSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	d.Store(nil, 0, buf)
	// Flush only the middle line.
	d.Persist(nil, LineSize, LineSize)
	d.Crash()
	got := make([]byte, 3*LineSize)
	d.Load(nil, 0, got)
	if !bytes.Equal(got[LineSize:2*LineSize], buf[LineSize:2*LineSize]) {
		t.Fatal("flushed middle line lost")
	}
	if bytes.Equal(got[:LineSize], buf[:LineSize]) {
		t.Fatal("unflushed first line survived")
	}
	if bytes.Equal(got[2*LineSize:], buf[2*LineSize:]) {
		t.Fatal("unflushed last line survived")
	}
}

func TestAtomicWordOps(t *testing.T) {
	d := newDev(4096)
	d.StoreUint64(nil, 64, 0xdeadbeef)
	if v := d.LoadUint64(nil, 64); v != 0xdeadbeef {
		t.Fatalf("LoadUint64 = %#x", v)
	}
	if !d.CompareAndSwapUint64(nil, 64, 0xdeadbeef, 42) {
		t.Fatal("CAS with correct old value failed")
	}
	if d.CompareAndSwapUint64(nil, 64, 0xdeadbeef, 43) {
		t.Fatal("CAS with stale old value succeeded")
	}
	if v := d.LoadUint64(nil, 64); v != 42 {
		t.Fatalf("after CAS = %d, want 42", v)
	}
}

func TestUnalignedAtomicPanics(t *testing.T) {
	d := newDev(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned atomic access did not panic")
		}
	}()
	d.LoadUint64(nil, 3)
}

func TestOutOfRangePanics(t *testing.T) {
	d := newDev(128)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access did not panic")
		}
	}()
	d.Store(nil, 120, make([]byte, 16))
}

func TestCASPersistsAfterFlush(t *testing.T) {
	d := newDev(4096)
	d.StoreUint64(nil, 0, 1)
	d.Persist(nil, 0, 8)
	d.CompareAndSwapUint64(nil, 0, 1, 2)
	d.Crash() // CAS result not flushed
	if v := d.LoadUint64(nil, 0); v != 1 {
		t.Fatalf("unflushed CAS survived crash: %d", v)
	}
	d.CompareAndSwapUint64(nil, 0, 1, 2)
	d.Persist(nil, 0, 8)
	d.Crash()
	if v := d.LoadUint64(nil, 0); v != 2 {
		t.Fatalf("flushed CAS lost on crash: %d", v)
	}
}

func TestPersistAll(t *testing.T) {
	d := newDev(4096)
	for off := 0; off < 4096; off += 512 {
		d.Store(nil, off, []byte{byte(off / 512)})
	}
	d.PersistAll()
	d.Crash()
	for off := 0; off < 4096; off += 512 {
		got := make([]byte, 1)
		d.Load(nil, off, got)
		if got[0] != byte(off/512) {
			t.Fatalf("PersistAll missed offset %d", off)
		}
	}
}

func TestReadPersisted(t *testing.T) {
	d := newDev(256)
	d.Store(nil, 0, []byte("abc"))
	got := make([]byte, 3)
	d.ReadPersisted(0, got)
	if string(got) == "abc" {
		t.Fatal("ReadPersisted saw unflushed data")
	}
	d.Persist(nil, 0, 3)
	d.ReadPersisted(0, got)
	if string(got) != "abc" {
		t.Fatalf("ReadPersisted after flush = %q", got)
	}
}

func TestCostCharging(t *testing.T) {
	d := New(Config{Size: 4096, ReadLatency: 300, WriteLatency: 90, FlushLatency: 100, FenceLatency: 30})
	clk := sim.NewClock(0)
	d.Load(clk, 0, make([]byte, 8))
	if clk.Now() < 300 {
		t.Fatalf("read did not charge latency: %d", clk.Now())
	}
	before := clk.Now()
	d.Store(clk, 0, make([]byte, 1024))
	if clk.Now() <= before {
		t.Fatal("store charged nothing")
	}
}

func TestBandwidthContention(t *testing.T) {
	d := New(Config{Size: 1 << 20, WriteBandwidth: 1_000_000_000}) // 1 GB/s => 1ns/byte
	// Two threads pushing 64 KB to media at t=0: the second waits for
	// channel time. (Media bandwidth is charged at flush/ChargeWrite;
	// plain stores only pay cache-fill costs.)
	c1, c2 := sim.NewClock(0), sim.NewClock(0)
	d.ChargeWrite(c1, 64<<10)
	d.ChargeWrite(c2, 64<<10)
	faster, slower := c1.Now(), c2.Now()
	if faster > slower {
		faster, slower = slower, faster
	}
	if slower < 2*(64<<10) {
		t.Fatalf("no bandwidth contention: second writer at %dns", slower)
	}
	// A flush of stored data must consume media bandwidth too.
	c3 := sim.NewClock(0)
	d.Store(c3, 0, make([]byte, 64<<10))
	storeOnly := c3.Now()
	d.Persist(c3, 0, 64<<10)
	if c3.Now()-storeOnly < 64<<10/2 {
		t.Fatalf("flush charged too little: %dns", c3.Now()-storeOnly)
	}
}

func TestConcurrentDisjointStores(t *testing.T) {
	d := newDev(1 << 16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := w * 4096
			buf := make([]byte, 64)
			for i := range buf {
				buf[i] = byte(w)
			}
			for i := 0; i < 50; i++ {
				d.Store(nil, base+(i%16)*64, buf)
				d.Persist(nil, base+(i%16)*64, 64)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < 8; w++ {
		got := make([]byte, 64)
		d.Load(nil, w*4096, got)
		if got[0] != byte(w) {
			t.Fatalf("worker %d data corrupted: %d", w, got[0])
		}
	}
}

func TestConcurrentCASUniqueWinners(t *testing.T) {
	d := newDev(4096)
	const n = 64
	winners := make([]int, n)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if d.CompareAndSwapUint64(nil, i*8, 0, uint64(w)+1) {
					winners[i]++
				}
			}
		}(w)
	}
	wg.Wait()
	for i, c := range winners {
		if c != 1 {
			t.Fatalf("slot %d had %d CAS winners", i, c)
		}
	}
}

// Property: any sequence of store/flush operations followed by a crash
// leaves each line either in its pre-store or fully-stored state.
func TestCrashStateIsPrefixConsistent(t *testing.T) {
	f := func(seed uint64, nOps uint8) bool {
		rng := sim.NewRNG(seed)
		d := newDev(16 * LineSize)
		flushed := make(map[int][]byte) // expected durable value per line
		current := make(map[int][]byte)
		for i := 0; i < int(nOps%50)+1; i++ {
			line := rng.Intn(16)
			buf := make([]byte, LineSize)
			for j := range buf {
				buf[j] = byte(rng.Uint64())
			}
			d.Store(nil, line*LineSize, buf)
			current[line] = buf
			if rng.Intn(2) == 0 {
				d.Persist(nil, line*LineSize, LineSize)
				flushed[line] = buf
			}
		}
		d.Crash()
		for line, want := range flushed {
			got := make([]byte, LineSize)
			d.Load(nil, line*LineSize, got)
			if !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	d := newDev(4096)
	d.Store(nil, 0, []byte{1})
	d.Load(nil, 0, make([]byte, 1))
	d.Persist(nil, 0, 1)
	s := d.Stats()
	if s.Stores != 1 || s.Loads != 1 || s.Flushes != 1 || s.Fences != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestViewIsLoadWithoutTheCopy: View returns the device's own bytes,
// bounded to the range, and counts and charges as the Load it replaces.
func TestViewIsLoadWithoutTheCopy(t *testing.T) {
	d := New(Config{Size: 4096})
	d.Store(nil, 128, []byte("persistent"))
	clkV, clkL := sim.NewClock(0), sim.NewClock(0)
	before := d.Stats().Loads
	v := d.View(clkV, 128, 10)
	if string(v) != "persistent" || cap(v) != 10 || d.Stats().Loads != before+1 {
		t.Fatalf("View = %q cap %d, %d loads", v, cap(v), d.Stats().Loads-before)
	}
	New(Config{Size: 4096}).Load(clkL, 128, make([]byte, 10))
	if clkV.Now() != clkL.Now() || clkV.Now() == 0 {
		t.Fatalf("View charged %d ns, Load %d", clkV.Now(), clkL.Now())
	}
	d.Store(nil, 128, []byte("P"))
	if v[0] != 'P' {
		t.Fatal("View copied")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range View did not panic")
		}
	}()
	d.View(nil, 4090, 10)
}

// TestPrefetchIsALoadPaidWhereItIsUsed: a prefetch is the load it stands
// for — the same load count, the same reservation on the channel, ready
// when the load would have returned — except that it advances nobody; the
// word is read, for free and uncounted, when it is used, and is then
// whatever is there.
func TestPrefetchIsALoadPaidWhereItIsUsed(t *testing.T) {
	d, same := New(Config{Size: 4096}), New(Config{Size: 4096})
	d.StoreUint64(nil, 64, 1)
	clkP, clkL := sim.NewClock(1000), sim.NewClock(1000)
	before := d.Stats().Loads
	ready := d.Prefetch(clkP, 64, 8)
	same.LoadUint64(clkL, 64)
	if clkP.Now() != 1000 || ready != clkL.Now() || d.Stats().Loads != before+1 {
		t.Fatalf("Prefetch at 1000: clock at %d, ready at %d, %d loads; a load returns at %d", clkP.Now(), ready, d.Stats().Loads-before, clkL.Now())
	}
	d.StoreUint64(nil, 64, 2) // after the prefetch, before the use
	if v := d.HeldUint64(64); v != 2 || d.Stats().Loads != before+1 {
		t.Fatalf("HeldUint64 = %d after %d loads, want the current word, 2, and the prefetch's one load", v, d.Stats().Loads-before)
	}
	// The channel is booked: a bulk read issued just before by another
	// thread, then a second prefetch, which queues behind it.
	d.ChargeRead(sim.NewClock(0), 1<<20)
	if later := d.Prefetch(clkP, 64, 8); later <= ready {
		t.Fatalf("a prefetch behind a 1 MiB read is ready at %d, no later than one on an idle channel (%d)", later, ready)
	}
	if d.Prefetch(nil, 64, 8) != 0 {
		t.Fatal("a prefetch without a clock has a ready time")
	}
}
