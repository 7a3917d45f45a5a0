// Package sim provides the virtual-time foundation used by the simulated
// storage devices.
//
// Every simulated application thread owns a Clock measured in virtual
// nanoseconds. Device models charge access costs (latency plus transfer
// time) to the issuing thread's clock instead of sleeping, which makes
// experiments deterministic and lets a single-core host reproduce the
// throughput and latency *shapes* of a 40-core, 8-SSD testbed.
//
// Shared device capacity is modeled by Resource: a serially reusable
// service channel in virtual time with gap-aware (backfilling) placement.
// Sustained offered load beyond capacity queues, which yields the
// queueing behaviour behind the paper's observation that large IO batches
// raise tail latency; transient out-of-order arrivals backfill idle gaps
// instead of stacking up.
package sim

import (
	"sort"
	"sync"
)

// Clock is a per-thread virtual clock in nanoseconds. It is not safe for
// concurrent use; each simulated thread owns exactly one Clock.
type Clock struct {
	now int64
}

// NewClock returns a clock starting at the given virtual time.
func NewClock(start int64) *Clock { return &Clock{now: start} }

// Now returns the current virtual time in nanoseconds.
func (c *Clock) Now() int64 { return c.now }

// Advance moves the clock forward by d nanoseconds. Negative d is ignored.
func (c *Clock) Advance(d int64) {
	if d > 0 {
		c.now += d
	}
}

// AdvanceTo moves the clock forward to t if t is later than the current
// virtual time. It returns the (possibly unchanged) current time.
func (c *Clock) AdvanceTo(t int64) int64 {
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Resource models a shared serially-reusable capacity (a device's
// bandwidth channel). Acquire schedules busy nanoseconds of service
// starting no earlier than at, returning the service window.
//
// The scheduler is gap-aware: a request arriving at a time when the
// resource is idle is placed into that idle gap even if later work has
// already been scheduled further in the future. (A naive next-free
// ratchet would strand early-time requests behind phantom busy windows
// whenever virtual clocks issue work out of order — which they routinely
// do when real goroutines are scheduled serially on few cores.)
type Resource struct {
	mu    sync.Mutex
	busy  []window // sorted by start, non-overlapping, merged when adjacent
	floor int64    // time before which no new work may be placed (pruned past)
}

type window struct{ start, end int64 }

// maxWindows bounds the busy list; old windows compress into the floor.
// The first window allocates the list at this bound, so no later Acquire
// allocates: how fragmented a schedule gets depends on goroutine timing,
// and a list that grew on demand made the heap traffic of otherwise
// identical runs differ by whole reallocations (up to 64 KiB each).
const maxWindows = 4096

// Acquire reserves busy ns of service beginning no earlier than at,
// using the earliest available gap. It returns the reserved window.
func (r *Resource) Acquire(at, busy int64) (start, end int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	start = at
	if r.floor > start {
		start = r.floor
	}
	if busy <= 0 {
		return start, start
	}
	// Find the first window that could conflict, then walk gaps.
	i := sort.Search(len(r.busy), func(i int) bool { return r.busy[i].end > start })
	for ; i < len(r.busy); i++ {
		if start+busy <= r.busy[i].start {
			break // fits in the gap before window i
		}
		if r.busy[i].end > start {
			start = r.busy[i].end
		}
	}
	end = start + busy
	// Insert [start,end) at position i, merging with touching neighbors.
	switch {
	case i > 0 && r.busy[i-1].end == start && i < len(r.busy) && r.busy[i].start == end:
		r.busy[i-1].end = r.busy[i].end
		r.busy = append(r.busy[:i], r.busy[i+1:]...)
	case i > 0 && r.busy[i-1].end == start:
		r.busy[i-1].end = end
	case i < len(r.busy) && r.busy[i].start == end:
		r.busy[i].start = start
	default:
		if r.busy == nil {
			r.busy = make([]window, 0, maxWindows+1)
		}
		r.busy = append(r.busy, window{})
		copy(r.busy[i+1:], r.busy[i:])
		r.busy[i] = window{start, end}
	}
	if len(r.busy) > maxWindows {
		cut := len(r.busy) - maxWindows/2
		r.floor = r.busy[cut-1].end
		r.busy = append(r.busy[:0], r.busy[cut:]...)
	}
	return start, end
}

// Backlog reports how far the resource's last scheduled work extends
// beyond t — the worst-case queueing delay a request arriving at t sees.
func (r *Resource) Backlog(t int64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	last := r.floor
	if n := len(r.busy); n > 0 {
		last = r.busy[n-1].end
	}
	if d := last - t; d > 0 {
		return d
	}
	return 0
}

// TransferNS converts a byte count and a bandwidth in bytes/second into a
// duration in nanoseconds, rounding up so tiny transfers are never free.
func TransferNS(bytes int, bytesPerSec int64) int64 {
	if bytes <= 0 || bytesPerSec <= 0 {
		return 0
	}
	ns := (int64(bytes)*1e9 + bytesPerSec - 1) / bytesPerSec
	if ns < 1 {
		ns = 1
	}
	return ns
}

// RNG is a splitmix64 pseudo-random generator: tiny, fast, and
// deterministic across runs, used by workload generators and device
// placement decisions. It is not safe for concurrent use.
type RNG struct {
	state uint64
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform value in [0, n). n must be > 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Split derives an independent generator, so concurrent workers can each
// own a deterministic stream.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}
