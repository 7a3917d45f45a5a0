package sim

import (
	"sync"
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

func TestResourceSerializes(t *testing.T) {
	var r Resource
	s1, e1 := r.Acquire(0, 100)
	if s1 != 0 || e1 != 100 {
		t.Fatalf("first acquire = [%d,%d), want [0,100)", s1, e1)
	}
	// Arrives while busy: queued behind.
	s2, e2 := r.Acquire(50, 100)
	if s2 != 100 || e2 != 200 {
		t.Fatalf("second acquire = [%d,%d), want [100,200)", s2, e2)
	}
	// Arrives after idle gap: starts at arrival.
	s3, e3 := r.Acquire(500, 10)
	if s3 != 500 || e3 != 510 {
		t.Fatalf("third acquire = [%d,%d), want [500,510)", s3, e3)
	}
}

func TestResourceBacklog(t *testing.T) {
	var r Resource
	r.Acquire(0, 1000)
	if b := r.Backlog(400); b != 600 {
		t.Fatalf("Backlog(400) = %d, want 600", b)
	}
	if b := r.Backlog(2000); b != 0 {
		t.Fatalf("Backlog(2000) = %d, want 0", b)
	}
}

// Property: concurrent acquisitions never produce overlapping service
// windows and total reserved time equals the sum of busy times.
func TestResourceConcurrentNoOverlap(t *testing.T) {
	var r Resource
	const workers = 8
	const perWorker = 200
	type window struct{ s, e int64 }
	results := make([][]window, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := NewRNG(uint64(w) + 1)
			for i := 0; i < perWorker; i++ {
				busy := rng.Int63n(50) + 1
				s, e := r.Acquire(rng.Int63n(1000), busy)
				results[w] = append(results[w], window{s, e})
			}
		}(w)
	}
	wg.Wait()
	var all []window
	for _, ws := range results {
		all = append(all, ws...)
	}
	// Sort by start and check non-overlap.
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if all[j].s < all[i].s {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	for i := 1; i < len(all); i++ {
		if all[i].s < all[i-1].e {
			t.Fatalf("windows overlap: [%d,%d) then [%d,%d)", all[i-1].s, all[i-1].e, all[i].s, all[i].e)
		}
	}
}

// A later-time reservation must not strand an earlier-time one: the
// earlier request backfills the idle gap.
func TestResourceBackfillsIdleGaps(t *testing.T) {
	var r Resource
	r.Acquire(1_000_000, 100) // future work at 1ms
	s, e := r.Acquire(0, 100) // early request: idle gap before 1ms
	if s != 0 || e != 100 {
		t.Fatalf("early request stranded: [%d,%d)", s, e)
	}
	// A request that does not fit in the gap goes after the future work.
	s2, _ := r.Acquire(0, 2_000_000)
	if s2 < 1_000_100 {
		t.Fatalf("oversized request overlapped future work: start %d", s2)
	}
	// Exact-fit gap reuse.
	s3, e3 := r.Acquire(100, 999_900)
	if s3 != 100 || e3 != 1_000_000 {
		t.Fatalf("exact gap not used: [%d,%d)", s3, e3)
	}
}

// However fragmented the schedule gets — past the window bound, so the
// list is trimmed into the floor several times — only the first window
// allocates.
func TestResourceAcquireAllocatesOnce(t *testing.T) {
	var r Resource
	r.Acquire(0, 1)
	at := int64(0)
	allocs := testing.AllocsPerRun(3*maxWindows, func() {
		at += 10 // a gap after every window: nothing merges
		r.Acquire(at, 1)
	})
	if allocs != 0 {
		t.Fatalf("Acquire allocates %.2f objects per call after the first", allocs)
	}
	if r.floor == 0 || len(r.busy) > maxWindows {
		t.Fatalf("list never trimmed: floor %d, %d windows", r.floor, len(r.busy))
	}
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
	f := func(n int64) bool {
		if n <= 0 {
			n = -n + 1
		}
		v := r.Int63n(n)
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
