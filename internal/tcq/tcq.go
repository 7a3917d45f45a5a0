// Package tcq implements opportunistic thread combining for Value
// Storage reads (§5.3).
//
// Concurrent reader threads line up in a Thread Combining Queue — an
// MCS-style list built with one atomic swap on the tail. Each brings a
// set of read requests: one for a Get, every extent on this device for a
// scan or a multi-key read. The thread that finds the tail empty becomes
// the leader: it walks the queue, coalesces sets (its own plus its
// followers') up to QueueDepth requests, submits them as one
// asynchronous batch, and distributes completions. Followers return as
// soon as the leader has serviced them. When the queue is longer than
// the coalescing limit, the leader hands leadership to the next waiter,
// so heavy read concurrency turns into large, bandwidth-efficient
// batches while a lone reader pays only its own latency — the dynamic
// batch-size adaptation the paper claims. The requests of one
// submission are in flight together: a set completes about one read
// latency after it is issued, however many requests it holds, and a set
// larger than the limit takes one submission per QueueDepth requests,
// one after the other.
//
// The package also provides TimeoutBatcher, the timeout-based
// asynchronous IO baseline ("TA") that Figure 11 compares against.
package tcq

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/ssd"
)

// DefaultDepth is the paper's coalescing limit (io_uring queue depth).
const DefaultDepth = 64

// node is one caller's set of requests waiting in a queue.
type node struct {
	reqs []ssd.Request
	at   int64
	done chan int64 // receives the set's latest DoneTime, or takeLead
	next atomic.Pointer[node]
}

// takeLead, sent on a waiting node's done channel in place of a
// completion time (which is never negative), hands it leadership of the
// rest of the queue.
const takeLead = -1

// batchStats counts submissions for Queue and TimeoutBatcher alike.
type batchStats struct {
	batches  atomic.Int64
	combined atomic.Int64

	// BatchHist, when set before first use, records the number of
	// requests in every submission — the Figure 11 batch-size
	// distribution. A nil histogram is a no-op.
	BatchHist *obs.Histogram
}

// record accounts for count coalesced requests, which go out as
// submissions of at most depth.
func (s *batchStats) record(count, depth int) {
	s.combined.Add(int64(count))
	for ; count > 0; count -= depth {
		s.batches.Add(1)
		s.BatchHist.Record(int64(min(count, depth)))
	}
}

// submit issues one caller's set to dev at virtual time at and returns
// the latest completion time. The requests of one submission overlap on
// the device. A set larger than depth goes out in successive
// submissions of at most depth, each issued when the previous one
// completes, so depth bounds what is in flight at any time.
func submit(dev *ssd.Device, depth int, at int64, reqs []ssd.Request) int64 {
	for len(reqs) > 0 {
		wave := reqs[:min(len(reqs), depth)]
		reqs = reqs[len(wave):]
		for _, c := range dev.Submit(at, wave) {
			at = max(at, c.DoneTime)
		}
	}
	return at
}

// Queue is a thread combining queue bound to one SSD (one Value Storage).
type Queue struct {
	dev   *ssd.Device
	depth int
	tail  atomic.Pointer[node]

	batchStats
}

// New creates a queue over dev with the given coalescing limit
// (DefaultDepth if 0).
func New(dev *ssd.Device, depth int) *Queue {
	if depth <= 0 {
		depth = DefaultDepth
	}
	return &Queue{dev: dev, depth: depth}
}

// Read submits the caller's set of read requests at virtual time at,
// possibly combined with concurrent readers' sets, and returns the
// latest completion time of the set (at itself for an empty set). Every
// request's Data is filled on return. A lone Get is the one-request
// set; a scan passes all its extents on this device at once.
func (q *Queue) Read(at int64, reqs ...ssd.Request) int64 {
	if len(reqs) == 0 {
		return at
	}
	n := &node{reqs: reqs, at: at, done: make(chan int64, 1)}
	if prev := q.tail.Swap(n); prev != nil {
		prev.next.Store(n)
		if d := <-n.done; d != takeLead {
			return d
		}
	}
	return q.lead(n)
}

// lead collects a batch starting at n, submits it, and distributes
// completions. It returns n's own completion time.
//
// The leader yields once before collecting so that concurrently runnable
// readers get to enqueue behind it — the "opportunistic" part of the
// scheme. Without the yield, a cooperative scheduler (GOMAXPROCS=1)
// would let every leader run to completion alone and no combining could
// ever occur.
func (q *Queue) lead(n *node) int64 {
	runtime.Gosched()
	// Coalesce followers while their sets fit under the limit. The
	// follower whose set would not fit — any follower, once the batch is
	// full or n's own set alone exceeds the limit — takes over leadership
	// of the rest of the queue before we do our IO.
	last, count := n, len(n.reqs)
	for {
		next := last.next.Load()
		if next == nil {
			// Possibly the true end of the queue: try to close it.
			if q.tail.CompareAndSwap(last, nil) {
				break
			}
			// A follower is mid-enqueue: wait for its link.
			for next == nil {
				runtime.Gosched()
				next = last.next.Load()
			}
		}
		if count+len(next.reqs) > q.depth {
			next.done <- takeLead
			break
		}
		last, count = next, count+len(next.reqs)
	}

	// Submit (§5.3 step 3). The batch shares one submission (one syscall
	// worth of CPU), but each member's IO is scheduled no earlier than
	// the later of its own arrival and the leader's — a straggler member
	// cannot delay the rest, it just lands later in the device queue.
	q.record(count, q.depth)
	own := submit(q.dev, q.depth, n.at, n.reqs)
	for b := n; b != last; {
		b = b.next.Load()
		b.done <- submit(q.dev, q.depth, max(b.at, n.at), b.reqs)
	}
	return own
}

// Stats reports combining effectiveness.
type Stats struct {
	Batches  int64
	Combined int64 // total requests across all batches
}

// Stats returns a snapshot of the queue's counters.
func (q *Queue) Stats() Stats {
	return Stats{Batches: q.batches.Load(), Combined: q.combined.Load()}
}

// TimeoutBatcher is the timeout-based asynchronous IO baseline of Figure
// 11 ("TA"): requests accumulate until the batch reaches the queue depth
// or a fixed timeout elapses from the first request, then the whole batch
// is submitted. Under low concurrency every request eats the timeout;
// under high concurrency it behaves like static batching.
type TimeoutBatcher struct {
	dev     *ssd.Device
	depth   int
	timeout int64 // virtual ns added to the group's first arrival

	// grace is the real-time delay before a pending group is rescued and
	// flushed at its virtual deadline (default 200us). It only affects
	// wall-clock progress, never virtual-time results.
	grace time.Duration

	batchStats

	mu    sync.Mutex
	group []*node
	count int // requests in group
	timer *time.Timer
}

// NewTimeoutBatcher creates the TA baseline. timeout is virtual
// nanoseconds (the paper uses 100 us).
func NewTimeoutBatcher(dev *ssd.Device, depth int, timeout int64) *TimeoutBatcher {
	if depth <= 0 {
		depth = DefaultDepth
	}
	if timeout <= 0 {
		timeout = 100_000
	}
	return &TimeoutBatcher{dev: dev, depth: depth, timeout: timeout}
}

// Read submits the caller's set of requests at virtual time at, blocks
// until its batch flushes, and returns the set's latest completion time
// (at itself for an empty set). A set that does not fit in the pending
// group flushes that group first.
func (b *TimeoutBatcher) Read(at int64, reqs ...ssd.Request) int64 {
	if len(reqs) == 0 {
		return at
	}
	n := &node{reqs: reqs, at: at, done: make(chan int64, 1)}
	b.mu.Lock()
	if b.count+len(reqs) > b.depth {
		b.flushLocked(false)
	}
	b.group = append(b.group, n)
	b.count += len(reqs)
	if b.count >= b.depth {
		b.flushLocked(false)
	} else if len(b.group) == 1 {
		// Arm a real-time trigger standing in for the device-poll timer;
		// the flush itself happens at the virtual deadline.
		after := b.grace
		if after == 0 {
			after = 200 * time.Microsecond
		}
		b.timer = time.AfterFunc(after, func() { b.flush(true) })
	}
	b.mu.Unlock()
	return <-n.done
}

func (b *TimeoutBatcher) flush(timedOut bool) {
	b.mu.Lock()
	b.flushLocked(timedOut)
	b.mu.Unlock()
}

func (b *TimeoutBatcher) flushLocked(timedOut bool) {
	if len(b.group) == 0 {
		return
	}
	if b.timer != nil {
		b.timer.Stop()
	}
	group, count := b.group, b.count
	b.group, b.count = nil, 0
	submitAt := group[0].at
	for _, g := range group {
		submitAt = max(submitAt, g.at)
	}
	if timedOut {
		// The batch waited out the timer from its first arrival.
		submitAt = max(submitAt, group[0].at+b.timeout)
	}
	b.record(count, b.depth)
	for _, g := range group {
		g.done <- submit(b.dev, b.depth, submitAt, g.reqs)
	}
}

// Flush forces any pending group out (shutdown/drain).
func (b *TimeoutBatcher) Flush() { b.flush(true) }

// Batches returns the number of batches submitted so far.
func (b *TimeoutBatcher) Batches() int64 { return b.batches.Load() }
