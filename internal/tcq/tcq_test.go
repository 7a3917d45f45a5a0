package tcq

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/ssd"
)

func newDev() *ssd.Device {
	return ssd.New(ssd.Config{Size: 1 << 22})
}

func prime(dev *ssd.Device, off int64, data []byte) {
	c := dev.Submit(0, []ssd.Request{{Op: ssd.OpWrite, Offset: off, Data: data}})
	dev.Ack(c[0])
}

func TestSingleReaderIsLeader(t *testing.T) {
	dev := newDev()
	prime(dev, 0, []byte("solo"))
	q := New(dev, 64)
	buf := make([]byte, 4)
	done := q.Read(0, ssd.Request{Op: ssd.OpRead, Offset: 0, Data: buf})
	if string(buf) != "solo" {
		t.Fatalf("read %q", buf)
	}
	if done <= 0 {
		t.Fatal("no completion time")
	}
	st := q.Stats()
	if st.Batches != 1 || st.Combined != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentReadersAllServed(t *testing.T) {
	dev := newDev()
	for i := 0; i < 64; i++ {
		prime(dev, int64(i)*512, []byte{byte(i), byte(i), byte(i), byte(i)})
	}
	q := New(dev, 8)
	const readers = 64
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]byte, 4)
			done := q.Read(int64(r), ssd.Request{Op: ssd.OpRead, Offset: int64(r) * 512, Data: buf})
			if buf[0] != byte(r) || buf[3] != byte(r) {
				errs <- "wrong data"
			}
			if done <= 0 {
				errs <- "no completion"
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	st := q.Stats()
	if st.Combined != readers {
		t.Fatalf("served %d of %d", st.Combined, readers)
	}
	if st.Batches == readers {
		t.Log("note: no combining occurred (all singleton batches) — legal but unusual")
	}
	if st.Batches < 1 || st.Combined > 8*st.Batches {
		t.Fatalf("%d requests in %d batches: mean outside [1,depth]", st.Combined, st.Batches)
	}
}

func TestCombiningProducesFewerBatches(t *testing.T) {
	dev := newDev()
	q := New(dev, 64)
	const readers = 256
	var wg sync.WaitGroup
	start := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			buf := make([]byte, 512)
			q.Read(0, ssd.Request{Op: ssd.OpRead, Offset: int64(r) * 512, Data: buf})
		}(r)
	}
	close(start)
	wg.Wait()
	st := q.Stats()
	if st.Combined != readers {
		t.Fatalf("served %d", st.Combined)
	}
	// With 256 concurrent readers and depth 64, combining must produce
	// far fewer batches than readers (conservatively: at most half).
	if st.Batches > readers/2 {
		t.Fatalf("batches = %d for %d readers — combining ineffective", st.Batches, readers)
	}
}

func TestDepthLimitRespected(t *testing.T) {
	dev := newDev()
	q := New(dev, 4)
	const readers = 40
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]byte, 64)
			q.Read(0, ssd.Request{Op: ssd.OpRead, Offset: int64(r) * 64, Data: buf})
		}(r)
	}
	wg.Wait()
	st := q.Stats()
	if st.Combined != readers {
		t.Fatalf("served %d", st.Combined)
	}
	if st.Batches < readers/4 {
		t.Fatalf("batches = %d < ceil(%d/4): depth limit violated", st.Batches, readers)
	}
}

func TestSequentialReadsReuseQueue(t *testing.T) {
	dev := newDev()
	q := New(dev, 64)
	buf := make([]byte, 64)
	for i := 0; i < 100; i++ {
		q.Read(int64(i)*1000, ssd.Request{Op: ssd.OpRead, Offset: 0, Data: buf})
	}
	st := q.Stats()
	if st.Batches != 100 || st.Combined != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTimeoutBatcherFlushesAtDepth(t *testing.T) {
	dev := newDev()
	b := NewTimeoutBatcher(dev, 4, 100_000)
	b.grace = time.Second // depth, not the rescue timer, must trigger
	var wg sync.WaitGroup
	times := make([]int64, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, 64)
			times[i] = b.Read(int64(i), ssd.Request{Op: ssd.OpRead, Offset: int64(i) * 64, Data: buf})
		}(i)
	}
	wg.Wait()
	for i, d := range times {
		if d <= 0 {
			t.Fatalf("reader %d got no completion", i)
		}
		// Depth-triggered flush: no 100us timeout in the completion.
		if d >= 100_000 {
			t.Fatalf("reader %d waited for timeout (%dns) despite full batch", i, d)
		}
	}
}

func TestTimeoutBatcherLoneRequestPaysTimeout(t *testing.T) {
	dev := newDev()
	b := NewTimeoutBatcher(dev, 64, 100_000)
	buf := make([]byte, 64)
	done := b.Read(0, ssd.Request{Op: ssd.OpRead, Offset: 0, Data: buf})
	if done < 100_000 {
		t.Fatalf("lone TA request completed at %dns, want >= timeout", done)
	}
}

func TestTimeoutBatcherFlushDrains(t *testing.T) {
	dev := newDev()
	b := NewTimeoutBatcher(dev, 64, 1<<40) // effectively no timer rescue
	res := make(chan int64, 1)
	go func() {
		buf := make([]byte, 64)
		res <- b.Read(0, ssd.Request{Op: ssd.OpRead, Offset: 0, Data: buf})
	}()
	// Give the reader time to register, then force the drain.
	for {
		b.Flush()
		select {
		case d := <-res:
			if d <= 0 {
				t.Fatal("drained request has no completion time")
			}
			return
		default:
		}
	}
}

// batchHist returns a histogram for BatchHist and a reader of its
// sample count and largest sample.
func batchHist() (*obs.Histogram, func() (count, max int64)) {
	r := obs.NewRegistry()
	h := r.Histogram(obs.Desc{Name: "batch_size"})
	return h, func() (int64, int64) {
		m, _ := r.Snapshot().Get("batch_size", nil)
		return m.Hist.Count, m.Hist.Max
	}
}

// readSet builds k read requests of 64 bytes at consecutive 512-byte
// slots starting at slot.
func readSet(slot, k int) []ssd.Request {
	reqs := make([]ssd.Request, k)
	for i := range reqs {
		reqs[i] = ssd.Request{Op: ssd.OpRead, Offset: int64(slot+i) * 512, Data: make([]byte, 64)}
	}
	return reqs
}

// TestLeadCoalescesSets drives lead over a queue built by hand, so what
// each leader takes is exact: sets coalesce while their summed request
// count fits under the depth, the first set that does not fit is handed
// leadership, a set larger than the depth goes out in depth-sized waves
// one after the other, and no member is scheduled before it arrived.
func TestLeadCoalescesSets(t *testing.T) {
	dev := newDev()
	lat := dev.Config().ReadLatency
	q := New(dev, 4)
	hist, histStats := batchHist()
	q.BatchHist = hist

	sizes := []int{1, 2, 1, 3, 9, 1}
	ats := []int64{1000, 0, 5000, 0, 0, 0}
	var nodes []*node
	for i, k := range sizes {
		n := &node{reqs: readSet(16*i, k), at: ats[i], done: make(chan int64, 1)}
		if prev := q.tail.Swap(n); prev != nil {
			prev.next.Store(n)
		}
		nodes = append(nodes, n)
	}
	handedTo := func(i int) {
		t.Helper()
		select {
		case d := <-nodes[i].done:
			if d == takeLead {
				return
			}
		default:
		}
		t.Fatalf("leadership was not handed to set %d", i)
	}

	// Leader 0 takes 1+2+1 = 4 requests; the 3-request set does not fit.
	own := q.lead(nodes[0])
	if own < ats[0]+lat || own >= ats[0]+2*lat {
		t.Fatalf("leader done at %d, want one read latency after its arrival %d", own, ats[0])
	}
	// Set 1 arrived before the leader: it goes out at the leader's time.
	if d := <-nodes[1].done; d < ats[0]+lat || d >= ats[0]+2*lat {
		t.Fatalf("early member done at %d, want one latency after the leader's arrival %d", d, ats[0])
	}
	// Set 2 is a straggler: never scheduled before its own arrival.
	if d := <-nodes[2].done; d < ats[2]+lat {
		t.Fatalf("straggler done at %d, before its arrival %d plus the read latency", d, ats[2])
	}
	handedTo(3)

	// Leader 3 has 3 requests; the 9-request set does not fit behind it.
	q.lead(nodes[3])
	handedTo(4)

	// Leader 4 alone exceeds the depth: waves of 4, 4 and 1, each issued
	// when the one before completes, and the next set leads itself.
	if own := q.lead(nodes[4]); own < 3*lat || own >= 4*lat {
		t.Fatalf("9 requests at depth 4 done at %d, want three read latencies (%d) and less than four", own, 3*lat)
	}
	handedTo(5)
	q.lead(nodes[5])
	if q.tail.Load() != nil {
		t.Fatal("last leader left the queue open")
	}

	if st := q.Stats(); st.Combined != 17 || st.Batches != 6 {
		t.Fatalf("stats = %+v, want 17 requests in 6 submissions (4, 3, 4+4+1, 1)", st)
	}
	if count, max := histStats(); count != 6 || max != 4 {
		t.Fatalf("batch histogram: %d samples, max %d; want 6 samples, max 4 = depth", count, max)
	}
}

// setReader is the read interface Queue and TimeoutBatcher share.
type setReader interface {
	Read(at int64, reqs ...ssd.Request) int64
}

// TestMixedSetReadersStress mixes one-request and multi-request readers
// on one queue, and on one timeout batcher: every buffer must hold its
// device bytes, every completion must follow its arrival by at least
// the read latency, and no submission may exceed the depth.
func TestMixedSetReadersStress(t *testing.T) {
	const (
		depth   = 8
		readers = 48
		rounds  = 20
	)
	dev := newDev()
	lat := dev.Config().ReadLatency
	for slot := 0; slot < readers*32; slot++ {
		prime(dev, int64(slot)*512, []byte{byte(slot), byte(slot >> 8), byte(slot), byte(slot >> 8)})
	}
	run := func(t *testing.T, r setReader, stats func() (batches, requests int64), hist func() (int64, int64)) {
		var wg sync.WaitGroup
		var want atomic.Int64
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Set sizes 1, 1, 2, 5 and 19: mostly small, one above the depth.
				k := []int{1, 1, 2, 5, 19}[g%5]
				for round := 0; round < rounds; round++ {
					at := int64(round*1_000_000 + g)
					reqs := readSet(g*32, k)
					done := r.Read(at, reqs...)
					want.Add(int64(k))
					if done < at+lat {
						t.Errorf("reader %d: done at %d, arrived at %d: less than the read latency", g, done, at)
					}
					for i, rq := range reqs {
						slot := g*32 + i
						if rq.Data[0] != byte(slot) || rq.Data[1] != byte(slot>>8) || rq.Data[3] != byte(slot>>8) {
							t.Errorf("reader %d request %d: buffer %v is not slot %d", g, i, rq.Data[:4], slot)
						}
					}
				}
			}(g)
		}
		wg.Wait()
		batches, requests := stats()
		if requests != want.Load() {
			t.Errorf("submitted %d requests, readers issued %d", requests, want.Load())
		}
		count, max := hist()
		if count != batches {
			t.Errorf("batch histogram has %d samples for %d submissions", count, batches)
		}
		if max > depth {
			t.Errorf("a submission carried %d requests, depth is %d", max, depth)
		}
		if min := (requests + depth - 1) / depth; batches < min {
			t.Errorf("%d submissions for %d requests at depth %d: fewer than %d", batches, requests, depth, min)
		}
	}

	t.Run("queue", func(t *testing.T) {
		q := New(dev, depth)
		h, hist := batchHist()
		q.BatchHist = h
		run(t, q, func() (int64, int64) { st := q.Stats(); return st.Batches, st.Combined }, hist)
		if q.tail.Load() != nil {
			t.Error("queue still has a tail after every reader returned")
		}
	})
	t.Run("timeout", func(t *testing.T) {
		b := NewTimeoutBatcher(dev, depth, 100_000)
		b.grace = 50 * time.Microsecond
		h, hist := batchHist()
		b.BatchHist = h
		run(t, b, func() (int64, int64) { return b.Batches(), b.combined.Load() }, hist)
	})
}

// TestQueueReadAllocatesNothing: a read reuses its waiter — node and done
// channel — from the queue's free list, keeps the caller's variadic set
// off the heap, and asks the device for its latest completion time
// without a completion slice.
func TestQueueReadAllocatesNothing(t *testing.T) {
	dev := newDev()
	prime(dev, 0, []byte("solo"))
	q := New(dev, 64)
	buf := make([]byte, 4)
	at := int64(0)
	if n := testing.AllocsPerRun(200, func() {
		at = q.Read(at, ssd.Request{Op: ssd.OpRead, Offset: 0, Data: buf})
	}); n != 0 {
		t.Errorf("a read allocated %v times, want 0", n)
	}
	if string(buf) != "solo" {
		t.Fatalf("read %q", buf)
	}
}

// TestTimeoutBatcherReadAllocatesNothing: the TA baseline reuses waiters
// the same way, so Figure 11's comparison charges neither side for them.
// At depth 1 every read flushes its own batch; at depth 2 a lone read
// waits for the rescue timer, which is armed once and reset after.
func TestTimeoutBatcherReadAllocatesNothing(t *testing.T) {
	dev := newDev()
	buf := make([]byte, 64)
	for _, depth := range []int{1, 2} {
		b := NewTimeoutBatcher(dev, depth, 100_000)
		b.grace = 10 * time.Microsecond
		b.Read(0, ssd.Request{Op: ssd.OpRead, Offset: 0, Data: buf}) // arms the timer
		if n := testing.AllocsPerRun(50, func() {
			b.Read(0, ssd.Request{Op: ssd.OpRead, Offset: 0, Data: buf})
		}); n != 0 {
			t.Errorf("depth %d: a TA read allocated %v times, want 0", depth, n)
		}
	}
}
