// Package sim provides the virtual-time foundation used by the simulated
// storage devices.
//
// Every simulated application thread owns a Clock measured in virtual
// nanoseconds. Device models charge access costs (latency plus transfer
// time) to the issuing thread's clock instead of sleeping, which makes
// experiments deterministic and lets a single-core host reproduce the
// throughput and latency *shapes* of a 40-core, 8-SSD testbed.
//
// Shared device capacity is modeled by Resource: a bandwidth channel in
// virtual time, kept as a calendar of fixed-width time buckets that each
// record how much service has been granted in them. A request takes the
// capacity that is left, from its arrival time forward, so requests
// share the channel instead of queueing for one contiguous slot in it: a
// bulk transfer flows around the small accesses already scheduled, a
// thread whose clock trails the others still finds the capacity nobody
// used, and no bucket is ever granted more service than its width.
// Offered load beyond capacity fills bucket after bucket and so queues,
// which yields the queueing behaviour behind the paper's observation
// that large IO batches raise tail latency.
package sim

import "sync"

// Clock is a per-thread virtual clock in nanoseconds. It is not safe for
// concurrent use; each simulated thread owns exactly one Clock.
type Clock struct {
	now int64
}

// NewClock returns a clock starting at the given virtual time.
func NewClock(start int64) *Clock { return &Clock{now: start} }

// Now returns the current virtual time in nanoseconds.
func (c *Clock) Now() int64 { return c.now }

// Reset sets the clock to t, backwards included: a thread that runs
// overlapping pieces of work on its one clock (core's overlap frame) takes
// it back to where the next piece starts.
func (c *Clock) Reset(t int64) { c.now = t }

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

// The calendar's geometry. A bucket is as wide as the queueing delay the
// model gives up on: requests inside one bucket are not ordered against
// each other. 1,024 ns is a third of a put and a fiftieth of an SSD read,
// yet a 512 KiB chunk write still spans a hundred buckets. The ring's
// length sets the horizon — how far a clock may trail the newest
// reservation and still be served at its own time: 65,536 buckets are
// 67 ms, beyond the skew between threads that advance a few microseconds
// per operation and are descheduled for milliseconds of wall time. At two
// bytes a bucket that is 128 KiB per channel, allocated by the first
// Acquire.
const (
	bucketShift = 10
	bucketNS    = 1 << bucketShift
	numBuckets  = 1 << 16
)

// Resource models a shared capacity (a device's bandwidth channel) as a
// calendar: a ring of fixed-width time buckets, each holding the busy
// nanoseconds already granted in it. The zero value is an idle channel.
//
// What the calendar conserves is service per bucket: the grants that
// draw on one bucket never add up to more than its width, so over any
// window that starts on a bucket boundary the channel serves at most the
// window plus one bucket. What it does not keep is an order inside a
// bucket: a request that fits in what its arrival bucket has left is
// served on arrival, whoever else was granted time there, so queueing
// delays shorter than a bucket are not modeled. A grant is final — a
// small request that arrives, in call order, after a bulk one and inside
// its span waits for the first bucket the bulk left room in.
type Resource struct {
	mu   sync.Mutex
	used []uint16 // busy ns granted in each bucket of the ring, at index bucket%numBuckets
	head int64    // newest bucket the ring holds; it covers (head-numBuckets, head]
}

// Acquire reserves busy ns of service beginning no earlier than at and
// returns the span in which it is served. The request draws on the free
// capacity of its arrival bucket — no more of it than lies after at —
// and then of each following bucket until it is covered; it starts where
// it first got capacity and, when it spilled past its arrival bucket,
// ends at the fill level of the last bucket it reached.
//
// The ring remembers numBuckets buckets back from the newest one any
// request has reached. A request older than that horizon is clamped to
// it: it is served as if it had arrived at the horizon, so a clock that
// nothing drives is pulled to within the horizon of the clocks that do
// the work. Acquire runs in time proportional to the buckets the request
// spans and does not allocate after the first call.
func (r *Resource) Acquire(at, busy int64) (start, end int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.used == nil {
		r.used = make([]uint16, numBuckets)
	}
	if horizon := (r.head - numBuckets + 1) << bucketShift; at < horizon {
		at = horizon
	}
	if busy <= 0 {
		return at, at
	}
	start = -1
	for b := at >> bucketShift; ; b++ {
		if b > r.head {
			r.advance(b)
		}
		slot := &r.used[b&(numBuckets-1)]
		room := min(bucketNS-int64(*slot), (b+1)<<bucketShift-at) // the second term binds only in the arrival bucket
		if room <= 0 {
			continue
		}
		if start < 0 {
			start = max(at, b<<bucketShift)
		}
		take := min(room, busy)
		*slot += uint16(take)
		if busy -= take; busy > 0 {
			continue
		}
		if b == at>>bucketShift {
			return start, start + take
		}
		return start, b<<bucketShift + int64(*slot)
	}
}

// Newest returns the start of the newest bucket any request has reached:
// the channel's present, for a caller that has no clock of its own to
// start from (recovery).
func (r *Resource) Newest() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.head << bucketShift
}

// advance makes b the newest bucket of the ring, recycling the oldest
// ones as empty buckets of the new range.
func (r *Resource) advance(b int64) {
	if b-r.head >= numBuckets {
		clear(r.used)
	} else {
		for i := r.head + 1; i <= b; i++ {
			r.used[i&(numBuckets-1)] = 0
		}
	}
	r.head = b
}

// DRAMLatency is what one DRAM access costs, in ns (Figure 1's DRAM row):
// a word load or CAS, and the latency part of a copy.
const DRAMLatency = 80

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

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Split derives an independent generator, so concurrent workers can each
// own a deterministic stream.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}
