package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/hsit"
	"repro/internal/record"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/valuestore"
)

// queueWindow queues whatever submit submits on th as one burst, admitted
// whole: one admission window if it is at most QueueDepth handles, else
// windows of QueueDepth. It parks the admission loop first — execMu held,
// a window of one missing key taken off the queue — so the burst queues up
// behind that window, whose handle it returns: the burst starts at its
// completion time.
func queueWindow(th *Thread, submit func()) (parked *Handle) {
	a := th.async
	a.execMu.Lock()
	parked = th.GetAsync([]byte("no such key"))
	for queued := 1; queued > 0; {
		runtime.Gosched()
		a.mu.Lock()
		queued = len(a.queue)
		a.mu.Unlock()
	}
	submit()
	a.execMu.Unlock()
	return parked
}

// oneWindow is queueWindow run to completion: it returns how far the burst
// advanced the async timeline.
func oneWindow(th *Thread, submit func()) (advance int64) {
	parked := queueWindow(th, submit)
	th.Flush()
	return th.AsyncNow() - parked.CompletedAt()
}

// residentStore returns a one-thread store whose keys aKey(0..n) hold
// 1 KiB values in a ring large enough that nothing is ever reclaimed, with
// both timelines far past every reservation the load left on the NVM
// channel.
func residentStore(t *testing.T, n int) (*Store, *Thread) {
	t.Helper()
	s := small(t, func(o *Options) {
		o.NumThreads = 1
		o.PWBBytesPerThread = 1 << 20
	})
	th := s.Thread(0)
	for i := 0; i < n; i++ {
		if err := th.Put(aKey(i), kib(i)); err != nil {
			t.Fatal(err)
		}
	}
	th.Clk.AdvanceTo(1 << 40)
	th.async.lt.Clk.AdvanceTo(1 << 40)
	return s, th
}

func kib(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 512) }

// TestWindowOverlapsMixedOps: an admission window is one pass, so a mixed
// stream overlaps the way a same-kind run always did. Thirty-two
// alternating SET/GET operations over PWB-resident 1 KiB keys are cut
// into windows of 1, 2 and 16: a window of one is a lone operation — one
// doorbell and what the operation costs on its own (cost_test.go), a
// window of one is not a frame's business — and depth 16 must take at most
// a quarter of depth 2's time per operation (before a window was one pass
// it was cut into same-kind runs whose makespans added up, so an
// alternating stream gained nothing past depth 2: 2,258 against 2,252 ns
// per operation). A put-only window is the degenerate case: its steps are
// issued a doorbell apart and it ends when the last of them does, to the
// nanosecond.
func TestWindowOverlapsMixedOps(t *testing.T) {
	const ops = 32
	perOp := map[int]int64{}
	var wantDepth1 int64
	for _, depth := range []int{1, 2, 16} {
		s, th := residentStore(t, ops)
		var total int64
		var hs []*Handle
		for from := 0; from < ops; from += depth {
			total += oneWindow(th, func() {
				for i := from; i < from+depth; i++ {
					if i%2 == 0 {
						hs = append(hs, th.PutAsync(aKey(i), kib(i+ops)))
					} else {
						hs = append(hs, th.GetAsync(aKey(i)))
					}
				}
			})
		}
		for i, h := range hs {
			if v, err := h.Value(); err != nil || i%2 == 1 && !bytes.Equal(v, kib(i)) {
				t.Fatalf("depth %d, op %d: %d bytes, %v", depth, i, len(v), err)
			}
		}
		perOp[depth] = total / ops
		t.Logf("depth %2d: %d virtual ns per operation", depth, perOp[depth])
		if depth == 1 {
			c := costsOf(s, th.Clk.Now())
			for i := 0; i < ops; i++ {
				if lookup := c.lookup(aKey(i)); i%2 == 0 {
					wantDepth1 += asyncIssueNS + c.put(lookup, pwbOff(t, s, aKey(i)), len(kib(i)))
				} else {
					wantDepth1 += asyncIssueNS + c.pwbGet(lookup, len(kib(i)))
				}
			}
			wantDepth1 /= ops
		}
	}
	if perOp[1] != wantDepth1 {
		t.Errorf("depth 1: %d ns per operation, want %d: a doorbell and the operation's own cost", perOp[1], wantDepth1)
	}
	if perOp[16]*4 > perOp[2] {
		t.Errorf("depth 16: %d ns per operation, want at most a quarter of depth 2's %d", perOp[16], perOp[2])
	}

	s, th := residentStore(t, 16)
	advance := oneWindow(th, func() {
		for i := 0; i < 16; i++ {
			th.PutAsync(aKey(i), kib(i+16))
		}
	})
	t.Logf("put-only window of 16: %d virtual ns", advance)
	var want int64
	for c, i := costsOf(s, th.Clk.Now()), 0; i < 16; i++ {
		want = max(want, int64(i+1)*asyncIssueNS+c.put(c.lookup(aKey(i)), pwbOff(t, s, aKey(i)), len(kib(i))))
	}
	if advance != want {
		t.Errorf("a put-only window of 16 advanced the clock %d ns, want %d: sixteen doorbells and the last put", advance, want)
	}
}

// TestScanRowsResolveOverlapped: the rows of a scan are independent NVM
// round trips and resolve through the overlap frame — 120 ns apart, not
// one after another — whichever medium holds them. Fifty PWB-resident rows
// cost 53.2 us before the frame (SVC word 301 + pointer word 302 +
// ReadValue 451 ns a row, in series) and fifty SVC-resident ones 23.0 us.
func TestScanRowsResolveOverlapped(t *testing.T) {
	const rows = 50
	scan := func(th *Thread) int64 {
		t.Helper()
		n, t0 := 0, th.Clk.Now()
		err := th.Scan(aKey(0), rows, func(kv KV) bool {
			if !bytes.Equal(kv.Key, aKey(n)) || !bytes.Equal(kv.Value, kib(n)) {
				t.Fatalf("row %d: key %q, %d value bytes", n, kv.Key, len(kv.Value))
			}
			n++
			return true
		})
		if err != nil || n != rows {
			t.Fatalf("scan yielded %d rows, %v", n, err)
		}
		return th.Clk.Now() - t0
	}

	s, th := residentStore(t, rows)
	hits := s.Stats().PWBHits
	advance := scan(th)
	t.Logf("%d PWB-resident rows: %d virtual ns", rows, advance)
	if n := s.Stats().PWBHits - hits; n != rows {
		t.Fatalf("%d of %d rows came from the PWB", n, rows)
	}
	if advance > 12_000 {
		t.Errorf("%d PWB-resident rows took %d ns, want at most 12,000", rows, advance)
	}

	// Second and third touch of rows on flash: the second admits them to
	// the SVC, the third is served from it.
	drain(t, s)
	scan(th)
	scan(th)
	hits = s.Stats().SVCHits
	th.Clk.AdvanceTo(th.Clk.Now() + 1<<30) // past the SSD reads' and the admissions' reservations
	advance = scan(th)
	t.Logf("%d SVC-resident rows: %d virtual ns", rows, advance)
	if n := s.Stats().SVCHits - hits; n != rows {
		t.Fatalf("%d of %d rows came from the SVC", n, rows)
	}
	if advance > 9_000 {
		t.Errorf("%d SVC-resident rows took %d ns, want at most 9,000", rows, advance)
	}
}

// TestMultiGetCostsWhatAWindowCosts: MultiGet and an admission window are
// the same frame, so sixteen keys of mixed residency — Value Storage, PWB,
// SVC, missing — cost the same virtual time read either way on two
// identically loaded stores.
func TestMultiGetCostsWhatAWindowCosts(t *testing.T) {
	const n = 16
	load := func() (*Thread, [][]byte) {
		// A ring the load does not fill to the reclaim watermark: what is on
		// flash is what drain put there, and what is put back stays.
		s, th := vsOnlyStore(t, n, apart, func(o *Options) { o.PWBBytesPerThread = 1 << 20 })
		keys := make([][]byte, n)
		for i := range keys {
			keys[i] = aKey(i)
		}
		for i := 0; i < n; i += 4 { // every fourth key back into the PWB
			if err := th.Put(keys[i], aValue(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i < n; i += 4 { // the next into the SVC
			if _, err := th.Get(keys[i]); err != nil {
				t.Fatal(err)
			}
		}
		keys[n-1] = []byte("a-missing")
		svc, pwb, vs := s.Stats().SVCHits, s.Stats().PWBHits, s.Stats().VSReads
		t.Cleanup(func() {
			st := s.Stats()
			if st.SVCHits-svc != n/4 || st.PWBHits-pwb != n/4 || st.VSReads-vs == 0 {
				t.Errorf("%d SVC hits, %d PWB hits, %d extents read: the keys are not of mixed residency",
					st.SVCHits-svc, st.PWBHits-pwb, st.VSReads-vs)
			}
		})
		th.Clk.AdvanceTo(1 << 40)
		th.async.lt.Clk.AdvanceTo(1 << 40)
		return th, keys
	}
	check := func(how string, vals [][]byte) {
		t.Helper()
		for i, v := range vals {
			if i == n-1 && v != nil || i < n-1 && !bytes.Equal(v, aValue(i)) {
				t.Fatalf("%s key %d: %d bytes", how, i, len(v))
			}
		}
	}

	th, keys := load()
	t0 := th.Clk.Now()
	vals, err := th.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	multiget := th.Clk.Now() - t0
	check("MultiGet", vals)

	th, keys = load()
	hs := make([]*Handle, n)
	window := oneWindow(th, func() {
		for i, k := range keys {
			hs[i] = th.GetAsync(k)
		}
	})
	for i, h := range hs {
		vals[i], _ = h.Value()
	}
	check("GetAsync", vals)

	t.Logf("MultiGet of %d keys: %d virtual ns; the same keys as one window: %d", n, multiget, window)
	if multiget != window {
		t.Errorf("MultiGet advanced its clock %d ns, the window %d", multiget, window)
	}
}

// TestWindowKeepsSubmissionOrderPerKey: within one window a get observes
// exactly the writes submitted before it on its key, also when it is left
// to the window's Value Storage batch and later operations of the window
// write the key: GET k; SET k v2; GET k; DEL k; GET k on a key on flash
// returns v1, OK, v2, OK, not found. The second case relocates the key's
// record and recycles its chunk under the batch — between the first GET's
// pointer load and its device read — so the batch falls back to reading
// the key from wherever it points then, which must still be before the
// SET: without the pending-read rule in pass (the batch is read before a
// write to a key it holds) the first GET returns not found.
func TestWindowKeepsSubmissionOrderPerKey(t *testing.T) {
	for _, moved := range []bool{false, true} {
		t.Run(fmt.Sprintf("moved=%v", moved), func(t *testing.T) {
			s := small(t, func(o *Options) { o.NumThreads, o.NumSSDs = 1, 1 })
			th := s.Thread(0)
			k, v1, v2 := aKey(0), kib(1), kib(2)
			// One reclaim pass, one chunk: k has a chunk to itself.
			for _, key := range [][]byte{k, aKey(1)} {
				if err := th.Put(key, v1); err != nil {
					t.Fatal(err)
				}
				drain(t, s)
			}
			clk := sim.NewClock(0)
			idx, _ := s.index.Lookup(clk, k)
			at := s.table.Load(clk, idx)
			if at.Media != hsit.VS {
				t.Fatalf("k is at %+v, want it on flash", at)
			}
			reads := 0
			s.readers[0] = hookedReader{s.readers[0], func() {
				if reads++; moved && reads == 1 {
					recycleChunk(t, s, idx, at, v1)
				}
			}}
			var hs []*Handle
			oneWindow(th, func() {
				hs = append(hs,
					th.GetAsync(k), th.PutAsync(k, v2), th.GetAsync(k), th.DeleteAsync(k), th.GetAsync(k),
					th.GetAsync(aKey(1))) // a get the writes do not concern: it waits for the window's end
			})
			// k's batch ahead of the SET, its re-read when that found the
			// record gone, the other key's batch at the window's end.
			if want := map[bool]int{false: 2, true: 3}[moved]; reads != want {
				t.Errorf("%d Value Storage reads, want %d", reads, want)
			}
			for i, want := range []struct {
				val []byte
				err error
			}{{v1, nil}, {nil, nil}, {v2, nil}, {nil, nil}, {nil, ErrNotFound}, {v1, nil}} {
				if v, err := hs[i].Value(); err != want.err || !bytes.Equal(v, want.val) {
					t.Errorf("op %d: %d bytes %.4x, %v; want %d bytes %.4x, %v", i, len(v), v, err, len(want.val), want.val, want.err)
				}
			}
		})
	}
}

// TestWindowStallMidWindow: a put that finds the ring full in the middle of
// a mixed window ends the pass there, with gets of that window still
// waiting for the Value Storage batch. The batch is read before the pass
// leaves its epoch, so those gets complete while the window sleeps; every
// handle completes exactly once (a second completion panics), in a prefix:
// nothing behind the stalled put completes before it does. Woken by a
// grant the window finishes with every value right; across Close and Crash
// the tail fails with ErrClosed, and after a crash exactly the completed
// prefix of the window's writes is there (§4.5's contract, unchanged). An
// epoch pinned by the test holds every grant back, so the ring stays full
// for as long as the test wants.
func TestWindowStallMidWindow(t *testing.T) {
	const flash, puts = 4, 40
	type stalled struct {
		s     *Store
		th    *Thread
		unpin func()
		hs    []*Handle
		want  [][]byte // per handle: a get's value; nil for a write
		done  int      // handles completed when the window went to sleep
	}
	stall := func(t *testing.T) *stalled {
		t.Helper()
		s := small(t, func(o *Options) {
			o.NumThreads = 1
			o.PWBBytesPerThread = 16 << 10 // fifteen 1 KiB records
		})
		w := &stalled{s: s, th: s.Thread(0)}
		for i := 0; i < flash; i++ {
			if err := w.th.Put(aKey(i), kib(i)); err != nil {
				t.Fatal(err)
			}
		}
		drain(t, s)
		reclaims := s.Stats().Reclaims
		pin := s.em.Register()
		pin.Enter()
		w.unpin = sync.OnceFunc(pin.Exit)
		t.Cleanup(w.unpin) // before the store's Close, which waits for epochs
		submit := func(h *Handle, want []byte) {
			w.hs, w.want = append(w.hs, h), append(w.want, want)
		}
		queueWindow(w.th, func() {
			for i := 0; i < puts; i++ {
				if i%4 == 0 { // a get left to the batch, and one that reads the window's own write
					submit(w.th.GetAsync(aKey(i/4%flash)), kib(i/4%flash))
					submit(w.th.GetAsync(key(i-1)), kib(i-1))
				}
				submit(w.th.PutAsync(key(i), kib(i)), nil)
			}
		})
		w.want[1] = nil // key(-1) was never written
		// The reclaimer the stalled put kicked finds something to scan only
		// once the pass has closed its publish window, and by then the pass
		// has read its batch: what is complete now is what completed before
		// the window left its epoch.
		for deadline := time.Now().Add(10 * time.Second); s.Stats().Reclaims == reclaims; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatal("no put of the window found the ring full")
			}
		}
		for w.done < len(w.hs) && w.hs[w.done].Done() {
			w.done++
		}
		for i, h := range w.hs[w.done:] {
			if h.Done() {
				t.Fatalf("handle %d completed behind handle %d, which has not", w.done+i, w.done)
			}
		}
		if w.done < 10 || w.done == len(w.hs) || w.hs[w.done].op != opPut {
			t.Fatalf("%d of %d handles completed before the window went to sleep", w.done, len(w.hs))
		}
		return w
	}
	// check requires nil and the right value of hs[:n], ErrClosed of the rest.
	check := func(t *testing.T, w *stalled, n int) {
		t.Helper()
		for i, h := range w.hs {
			v, err := h.Value()
			switch {
			case i >= n && err != ErrClosed:
				t.Fatalf("handle %d behind the stall: %v, want ErrClosed", i, err)
			case i < n && i == 1 && err != ErrNotFound:
				t.Fatalf("handle 1: %v, want ErrNotFound", err)
			case i < n && i != 1 && (err != nil || !bytes.Equal(v, w.want[i])):
				t.Fatalf("handle %d: %d bytes, %v; want %d bytes", i, len(v), err, len(w.want[i]))
			}
		}
	}
	// durable requires exactly the window's first n puts to be readable.
	durable := func(t *testing.T, w *stalled, n int) {
		t.Helper()
		for i := 0; i < puts; i++ {
			v, err := w.th.Get(key(i))
			if i < n && (err != nil || !bytes.Equal(v, kib(i))) || i >= n && err != ErrNotFound {
				t.Fatalf("put %d of the window, %d completed: read %d bytes, %v", i, n, len(v), err)
			}
		}
	}
	putsIn := func(w *stalled, n int) (k int) {
		for _, h := range w.hs[:n] {
			if h.op == opPut {
				k++
			}
		}
		return k
	}

	t.Run("grant", func(t *testing.T) {
		w := stall(t)
		w.unpin() // the maintenance tick's Collect lands the grants
		w.th.Flush()
		check(t, w, len(w.hs))
		durable(t, w, puts)
	})
	t.Run("close", func(t *testing.T) {
		w := stall(t)
		closed := make(chan error, 1)
		go func() { closed <- w.s.Close() }() // interrupts the ring, then waits out the pinned epoch
		check(t, w, w.done)
		w.unpin()
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
	})
	t.Run("crash", func(t *testing.T) {
		w := stall(t)
		w.s.Crash()
		check(t, w, w.done)
		w.unpin()
		if _, err := w.s.Recover(); err != nil {
			t.Fatal(err)
		}
		durable(t, w, putsIn(w, w.done))
	})
}

// recycleChunk does what GC and the next chunk writer do between them to a
// record alone in its chunk: the value val of HSIT entry idx, still at
// `at` on device 0, moves to a fresh chunk; the old chunk, empty now, goes
// back on top of the free list, and the next chunk written — of records
// nobody wants — lands on it.
func recycleChunk(t *testing.T, s *Store, idx uint64, at hsit.Pointer, val []byte) {
	clk, st := sim.NewClock(0), s.vsm.Stores[0]
	if s.table.Load(clk, idx) == at {
		_, err := st.WriteChunk(clk, 0, []valuestore.Move{{HSITIdx: idx, Old: at.Off, Value: val}}, func(_ int, e valuestore.Entry) bool {
			_, ok := s.table.PublishIf(clk, idx, at, hsit.Pointer{Media: hsit.VS, Len: e.ValueLen, Off: valuestore.GlobalOff(0, e.LocalOff)})
			return ok && s.vsm.Invalidate(at.Off, at.Len)
		})
		if err != nil {
			t.Error(err)
		}
	}
	junk := []valuestore.Move{{HSITIdx: idx + 1, Value: make([]byte, len(val)+8)}}
	if _, err := st.WriteChunk(clk, 0, junk, func(int, valuestore.Entry) bool { return false }); err != nil {
		t.Error(err)
	}
	_, local := valuestore.SplitOff(at.Off)
	req := st.ReadAt(local, at.Len)
	s.ssds[0].Submit(0, []ssd.Request{req})
	if _, err := record.Coupled(req.Data, idx, at.Len); err == nil {
		t.Errorf("the record at %+v survived its chunk's recycling", at)
	}
}

// hookedReader runs before ahead of every Value Storage read of a device.
type hookedReader struct {
	vsReader
	before func()
}

func (h hookedReader) Read(at int64, reqs ...ssd.Request) int64 {
	h.before()
	return h.vsReader.Read(at, reqs...)
}
