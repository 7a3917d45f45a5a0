package sim

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock(100)
	if c.Now() != 100 {
		t.Fatalf("Now = %d, want 100", c.Now())
	}
	c.Advance(50)
	if c.Now() != 150 {
		t.Fatalf("Now = %d, want 150", c.Now())
	}
	c.Advance(-10) // ignored
	if c.Now() != 150 {
		t.Fatalf("negative advance changed clock: %d", c.Now())
	}
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock(0)
	if got := c.AdvanceTo(42); got != 42 {
		t.Fatalf("AdvanceTo returned %d, want 42", got)
	}
	if got := c.AdvanceTo(10); got != 42 {
		t.Fatalf("AdvanceTo went backwards: %d", got)
	}
}

// An idle channel serves a request where it arrives, whether it fits in
// its arrival bucket or spans many.
func TestResourceIdleArrivalStartsAtArrival(t *testing.T) {
	for _, c := range []struct{ at, busy int64 }{
		{0, 100}, {12_345, 5}, {bucketNS - 1, 1}, {bucketNS - 10, 100}, {777, 50 * bucketNS},
	} {
		var r Resource
		if s, e := r.Acquire(c.at, c.busy); s != c.at || e != c.at+c.busy {
			t.Errorf("idle Acquire(%d, %d) = [%d,%d), want [%d,%d)", c.at, c.busy, s, e, c.at, c.at+c.busy)
		}
	}
	var r Resource
	if s, e := r.Acquire(500, 0); s != 500 || e != 500 {
		t.Errorf("empty request = [%d,%d), want [500,500)", s, e)
	}
}

type grant struct{ start, end, busy int64 }

// Conservation, with eight goroutines on the channel at once: over any
// window that starts on a bucket boundary, the requests served wholly
// inside it were granted no more than the window plus one bucket, and
// every request is served for at least as long as it asked.
func TestResourceConservesCapacity(t *testing.T) {
	var r Resource
	const workers, perWorker = 8, 400
	results := make([][]grant, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := NewRNG(uint64(w) + 1)
			for i := 0; i < perWorker; i++ {
				busy := int64(rng.Intn(3*bucketNS)) + 1 // 1.5x the channel's capacity over the arrival span
				s, e := r.Acquire(int64(rng.Intn(3_000*bucketNS)), busy)
				results[w] = append(results[w], grant{s, e, busy})
			}
		}(w)
	}
	wg.Wait()
	var all []grant
	for _, gs := range results {
		all = append(all, gs...)
	}
	slices.SortFunc(all, func(a, b grant) int { return cmp.Compare(a.end, b.end) })
	for _, g := range all {
		if g.end-g.start < g.busy {
			t.Fatalf("request of %d ns served in [%d,%d)", g.busy, g.start, g.end)
		}
	}
	last := all[len(all)-1].end
	for from := int64(0); from < last; from += bucketNS {
		var sum int64
		for _, g := range all { // by end: each prefix is a window [from, g.end)
			if g.start < from {
				continue
			}
			if sum += g.busy; sum > g.end-from+bucketNS {
				t.Fatalf("window [%d,%d) was granted %d ns", from, g.end, sum)
			}
		}
	}
}

// Offered twice what the channel can serve, the work completes at the
// channel's capacity: the last request ends where the total busy time does.
func TestResourceOverloadCompletesAtCapacity(t *testing.T) {
	var r Resource
	const n, busy = 10_000, 200
	var last int64
	for i := int64(0); i < n; i++ {
		_, last = r.Acquire(i*busy/2, busy)
	}
	if want := int64(n * busy); last < want || last > want+want/100 {
		t.Fatalf("%d requests of %d ns, arriving every %d ns, end at %d; want %d (+1%%)", n, busy, busy/2, last, want)
	}
}

// A bulk request shares the channel with the small ones already on it: on
// a channel at utilisation rho it ends where B/(1-rho) of wall-to-wall
// capacity runs out, to within a bucket, instead of waiting for a gap as
// long as itself. It moves none of the requests granted before it, and a
// small request that arrives as it ends waits for at most one bucket.
func TestResourceBulkSharesChannel(t *testing.T) {
	var r Resource
	const (
		span  = 4_000 * bucketNS
		every = 64 // one 5 ns request every 64 ns, sixteen to a bucket
		small = 5
		bulk  = 500 * bucketNS
		at    = 100*bucketNS + 300
	)
	for a := int64(0); a < span; a += every {
		if s, e := r.Acquire(a, small); s != a || e != a+small {
			t.Fatalf("small request at %d served in [%d,%d)", a, s, e)
		}
	}
	rho := float64(small) / every
	s, e := r.Acquire(at, bulk)
	want := at + int64(bulk/(1-rho))
	if s != at || e < want-bucketNS || e > want+bucketNS {
		t.Fatalf("bulk of %d ns at %d on a channel at %.3f: [%d,%d), want it to end at %d give or take a bucket", bulk, at, rho, s, e, want)
	}
	for _, a := range []int64{e, e + 1, e + bucketNS/2} {
		if s, _ := r.Acquire(a, small); s-a > bucketNS {
			t.Fatalf("5 ns request at %d, where the bulk ends, starts at %d", a, s)
		}
	}
	// Behind the bulk, and past it, the channel is as it was.
	for _, a := range []int64{at - 2*bucketNS, e + 2*bucketNS} {
		if s, _ := r.Acquire(a, small); s != a {
			t.Fatalf("5 ns request at %d starts at %d", a, s)
		}
	}
}

// A clock that lags the newest reservation still finds the capacity
// nobody used at its own time; only past the horizon is it pulled forward,
// and then to the horizon.
func TestResourceLaggingClockAndHorizon(t *testing.T) {
	var r Resource
	r.Acquire(20_000_000, 100)
	if s, e := r.Acquire(10_000_000, 100); s != 10_000_000 || e != 10_000_100 {
		t.Fatalf("request 10 ms behind the newest reservation: [%d,%d)", s, e)
	}
	const far = 200_000_000 // three horizons ahead
	r.Acquire(far, 10)
	horizon := int64(far>>bucketShift-numBuckets+1) << bucketShift
	if s, e := r.Acquire(0, 10); s != horizon || e != horizon+10 {
		t.Fatalf("request older than the horizon: [%d,%d), want [%d,%d)", s, e, horizon, horizon+10)
	}
	if s, _ := r.Acquire(horizon+5*bucketNS, 10); s != horizon+5*bucketNS {
		t.Fatalf("request inside the horizon moved to %d", s)
	}
}

// Only the first Acquire allocates, however the clocks that follow are
// spread: one running ahead, one 5 ms behind it, and a jump past the whole
// ring.
func TestResourceAcquireAllocatesOnce(t *testing.T) {
	var r Resource
	r.Acquire(0, 1)
	at := int64(5_000_000)
	allocs := testing.AllocsPerRun(10_000, func() {
		at += 700
		r.Acquire(at, 5)
		r.Acquire(at-5_000_000, 3*bucketNS)
	})
	if allocs != 0 {
		t.Fatalf("Acquire allocates %.2f objects per call after the first", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { at += 2 * numBuckets * bucketNS; r.Acquire(at, 5) }); allocs != 0 {
		t.Fatalf("Acquire allocates %.2f objects per call when the ring turns over", allocs)
	}
}

// BenchmarkResourceAcquire is the channel's own line in `make bench-smoke`:
// one clock alone, and two clocks that stay 5 ms apart, so that the
// lagging one reserves in the middle of what the leading one has booked
// — first taking turns, which repeats exactly, then from two goroutines,
// which adds the contention for the channel's lock and interleaves as the
// scheduler pleases. Virtual time is a shared tick, 3 us (an operation's
// worth) per call, so the skew is the benchmark's: it does not grow when
// one goroutine gets more of the CPU, nor shrink when an implementation
// moves a lagging request forward.
func BenchmarkResourceAcquire(b *testing.B) {
	const skew = 5_000_000
	var tick atomic.Int64
	run := func(r *Resource, lead int64, n int) {
		for i := 0; i < n; i++ {
			r.Acquire(tick.Add(3_000)+lead, 5)
		}
	}
	bench := func(name string, body func(r *Resource, n int)) {
		b.Run(name, func(b *testing.B) {
			var r Resource
			r.Acquire(0, 1)
			b.ReportAllocs()
			b.ResetTimer()
			body(&r, b.N)
		})
	}
	bench("uncontended", func(r *Resource, n int) { run(r, 0, n) })
	bench("skewed-5ms", func(r *Resource, n int) {
		for i := 0; i < n; i++ {
			r.Acquire(tick.Add(3_000)+int64(i&1)*skew, 5)
		}
	})
	bench("skewed-5ms-2goroutines", func(r *Resource, n int) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			run(r, skew, n/2)
		}()
		run(r, 0, n-n/2)
		<-done
	})
}

func TestTransferNS(t *testing.T) {
	cases := []struct {
		bytes int
		bw    int64
		want  int64
	}{
		{0, 1e9, 0},
		{1, 1e9, 1},
		{1000, 1e9, 1000},
		{1024, 7_000_000_000, 147}, // ceil(1024e9/7e9)
		{512, 0, 0},
	}
	for _, c := range cases {
		if got := TransferNS(c.bytes, c.bw); got != c.want {
			t.Errorf("TransferNS(%d, %d) = %d, want %d", c.bytes, c.bw, got, c.want)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	if NewRNG(7).Uint64() == NewRNG(8).Uint64() {
		t.Fatal("different seeds produced same first value")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(1)
	f := func(n int) bool {
		if n <= 0 {
			n = -n + 1
		}
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(42)
	s := r.Split()
	if r.Uint64() == s.Uint64() {
		t.Fatal("split stream mirrors parent")
	}
}
