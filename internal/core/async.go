package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/hsit"
	"repro/internal/sim"
)

// Asynchronous submission (§5.4 one layer up): PutAsync/GetAsync/
// DeleteAsync enqueue work on a per-thread admission loop and return a
// completion Handle immediately. The loop drains whatever has queued
// into one admission window — one epoch enter, one PWB publish window —
// exactly the coalescing the TCQ already performs for SSD IO, applied to
// whole operations. Within a window each operation runs on its own stage
// clock forked from the window's base clock, so fixed device latencies
// (NVM load/store latency, flush waits) overlap across in-flight
// operations while shared-bandwidth costs (the NVM DIMM channel, SSD
// transfer time) still serialize in virtual time: the same
// latency-hiding / bandwidth-bound split as a real submission queue.

// asyncIssueNS is the per-submission issue cost charged to the window's
// base clock: ringing the doorbell and staging one SQE. It is the only
// strictly serial per-op software cost of the pipeline.
const asyncIssueNS = 120

// asyncOp is the operation kind carried by a Handle.
type asyncOp uint8

const (
	opPut asyncOp = iota
	opGet
	opDelete
)

// Handle is the completion future of one asynchronous submission.
//
// Wait, Value, Done, and CompletedAt are safe to call from any
// goroutine, any number of times, concurrently. A Handle completes
// exactly once; after the first Wait returns, every accessor observes
// the same result. Dropping a Handle without waiting is allowed — the
// operation still executes (a completed Put is durable whether or not
// anyone observes it).
type Handle struct {
	op     asyncOp
	key    []byte
	val    []byte // put: input value until applied; get: result value
	ts     uint64 // nonzero: timestamped variant (PutTSAsync/DeleteTSAsync)
	err    error
	doneNS int64
	done   chan struct{}

	// cbMu guards cb against a concurrent completion; see OnDone.
	cbMu sync.Mutex
	cb   func(*Handle)
}

// Wait blocks until the operation completes and returns its error:
// nil on success, ErrNotFound for a missing key (Get/Delete), ErrClosed
// if the store closed before the operation was admitted.
func (h *Handle) Wait() error {
	<-h.done
	return h.err
}

// Value blocks until the operation completes and returns its result.
// Only GetAsync produces a value; for Put/Delete it is always nil.
func (h *Handle) Value() ([]byte, error) {
	<-h.done
	return h.val, h.err
}

// Done reports whether the operation has completed, without blocking.
func (h *Handle) Done() bool {
	select {
	case <-h.done:
		return true
	default:
		return false
	}
}

// CompletedAt blocks until the operation completes and returns the
// virtual time (ns, on the thread's async timeline) at which it did.
// Completion times are monotone in completion order.
func (h *Handle) CompletedAt() int64 {
	<-h.done
	return h.doneNS
}

// OnDone registers fn to run exactly once when the handle completes,
// called from the completing goroutine — or inline, before OnDone
// returns, if the handle already completed. At most one callback per
// handle. The shard router uses it to compose replica fan-out handles
// without burning a goroutine per submission; fn must not block.
func (h *Handle) OnDone(fn func(*Handle)) {
	h.cbMu.Lock()
	select {
	case <-h.done:
		h.cbMu.Unlock()
		fn(h)
		return
	default:
	}
	h.cb = fn
	h.cbMu.Unlock()
}

// finish closes the done channel and fires any registered callback.
// Result fields must be set before calling.
func (h *Handle) finish() {
	h.cbMu.Lock()
	close(h.done)
	cb := h.cb
	h.cb = nil
	h.cbMu.Unlock()
	if cb != nil {
		cb(h)
	}
}

// NewProxyHandle returns an unresolved Handle plus the function that
// resolves it. The shard router aggregates per-replica completions into
// one caller-visible handle this way. resolve must be called exactly
// once; doneNS is the completion time reported by CompletedAt.
func NewProxyHandle() (h *Handle, resolve func(val []byte, err error, doneNS int64)) {
	h = &Handle{done: make(chan struct{})}
	return h, func(val []byte, err error, doneNS int64) {
		h.val, h.err, h.doneNS = val, err, doneNS
		h.finish()
	}
}

// completedHandle returns an already-completed Handle carrying err
// (immediate rejections: store closed, value too large).
func completedHandle(err error) *Handle {
	h := &Handle{err: err, done: make(chan struct{})}
	close(h.done)
	return h
}

// asyncThread is one Thread's admission loop: the shadow executor that
// drains queued submissions into coalesced admission windows.
//
// The loop never touches the public Thread's state. It executes on lt, a
// private shadow Thread sharing only the Store and the thread's PWB ring
// with its public twin: lt has its own virtual clock (the async
// timeline — think of it as the SQPOLL core servicing this thread's
// submission ring), its own epoch participant (epoch sections do not
// nest), and its own RNG and batch-read scratch. execMu serializes the
// shared PWB ring — and its publish-pending window — between the loop's
// admission windows and the owner's synchronous Put/PutBatch.
type asyncThread struct {
	t  *Thread // public handle (owner of the ring)
	lt *Thread // shadow executor the admission loop runs on

	// execMu serializes ring access: held for every admission window and
	// for every synchronous Put/PutBatch attempt on the public twin.
	execMu sync.Mutex

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*Handle
	inflight atomic.Int64 // also read lock-free by the in-flight gauge
	started  bool
	stopping bool
	loopDone chan struct{}

	// lastDone makes completion times monotone in completion order
	// (stage clocks may finish out of order within a window). Only the
	// loop goroutine touches it.
	lastDone int64

	pendIdx []int // getPass scratch: window indexes awaiting the VS batch
}

// PutAsync submits a durable write and returns its completion Handle.
// The write obeys the same durability contract as Put — when the Handle
// completes successfully the value is persisted — but executes on the
// thread's async timeline, coalesced with other pending submissions.
//
// Unlike the synchronous methods, PutAsync (and GetAsync/DeleteAsync)
// may be called from any goroutine, concurrently; key and value are
// copied before return. Submissions on one Thread apply in submission
// order. If more than Options.AsyncMaxPending submissions are in flight
// the call blocks until the loop catches up (backpressure, not error).
func (t *Thread) PutAsync(key, value []byte) *Handle { return t.PutTSAsync(key, value, 0) }

// PutTSAsync is PutAsync carrying a logical timestamp; the admission
// loop applies it through putStep's last-writer-wins gate (stamp 0 is
// the plain PutAsync).
func (t *Thread) PutTSAsync(key, value []byte, ts uint64) *Handle {
	s := t.s
	if s.closed.Load() {
		return completedHandle(ErrClosed)
	}
	if len(value) > hsit.MaxValueLen {
		return completedHandle(errValueTooLarge(len(value)))
	}
	s.stats.puts.Add(1)
	s.stats.asyncPuts.Add(1)
	s.stats.userBytesWritten.Add(int64(len(value)))
	return t.async.submit(&Handle{op: opPut, key: cloneBytes(key), val: cloneBytes(value), ts: ts, done: make(chan struct{})})
}

// GetAsync submits a read and returns its completion Handle; the value
// arrives via Handle.Value (nil + ErrNotFound for a missing key). A read
// submitted after a write on the same Thread observes that write. See
// PutAsync for the concurrency contract.
func (t *Thread) GetAsync(key []byte) *Handle {
	s := t.s
	if s.closed.Load() {
		return completedHandle(ErrClosed)
	}
	s.stats.gets.Add(1)
	s.stats.asyncGets.Add(1)
	return t.async.submit(&Handle{op: opGet, key: cloneBytes(key), done: make(chan struct{})})
}

// DeleteAsync submits a delete and returns its completion Handle
// (ErrNotFound if the key was missing). See PutAsync for the
// concurrency contract.
func (t *Thread) DeleteAsync(key []byte) *Handle { return t.DeleteTSAsync(key, 0) }

// DeleteTSAsync is DeleteAsync carrying a logical timestamp. The handle
// completes with nil if a live value was removed here and ErrNotFound if
// only the tombstone was recorded (superseded or already absent).
func (t *Thread) DeleteTSAsync(key []byte, ts uint64) *Handle {
	s := t.s
	if s.closed.Load() {
		return completedHandle(ErrClosed)
	}
	s.stats.deletes.Add(1)
	s.stats.asyncDeletes.Add(1)
	return t.async.submit(&Handle{op: opDelete, key: cloneBytes(key), ts: ts, done: make(chan struct{})})
}

// Flush blocks until every async submission on this Thread has
// completed. It does not prevent new submissions from other goroutines;
// callers wanting a quiescent point stop submitting first.
func (t *Thread) Flush() {
	a := t.async
	a.mu.Lock()
	for a.inflight.Load() > 0 {
		a.cond.Wait()
	}
	a.mu.Unlock()
}

// AsyncNow returns the current virtual time of the thread's async
// timeline (the admission loop's clock). After Flush it is the makespan
// of everything submitted so far.
func (t *Thread) AsyncNow() int64 {
	a := t.async
	a.execMu.Lock()
	now := a.lt.Clk.Now()
	a.execMu.Unlock()
	return now
}

// submit enqueues h on the admission loop, applying backpressure at
// Options.AsyncMaxPending in-flight submissions, and lazily starts the
// loop goroutine on first use.
func (a *asyncThread) submit(h *Handle) *Handle {
	s := a.t.s
	a.mu.Lock()
	for !a.stopping && !s.closed.Load() && a.inflight.Load() >= int64(s.opt.AsyncMaxPending) {
		a.cond.Wait()
	}
	if a.stopping || s.closed.Load() {
		a.mu.Unlock()
		h.err = ErrClosed
		h.finish()
		return h
	}
	a.queue = append(a.queue, h)
	a.inflight.Add(1)
	if !a.started {
		a.started = true
		a.loopDone = make(chan struct{})
		go a.loop()
	}
	a.cond.Broadcast()
	a.mu.Unlock()
	return h
}

// stop drains the queue and joins the loop. Called from Store.Close
// after the closed flag is set: everything still queued completes with
// ErrClosed (callers wanting clean completion Flush before Close).
func (a *asyncThread) stop() {
	a.mu.Lock()
	a.stopping = true
	started := a.started
	a.cond.Broadcast()
	a.mu.Unlock()
	if started {
		<-a.loopDone
	}
}

// reset rearms a stopped admission loop (Recover restarting the store
// after a Crash). The queue is empty by then — stop drained it — so the
// next submission lazily starts a fresh loop goroutine.
func (a *asyncThread) reset() {
	a.mu.Lock()
	a.stopping = false
	a.started = false
	a.mu.Unlock()
}

// loop is the admission loop: grab everything queued (capped at
// Options.QueueDepth per window), run it as one coalesced window, wake
// waiters, repeat. Runs until stop() and the queue is empty — a window
// in progress always completes its handles.
func (a *asyncThread) loop() {
	defer close(a.loopDone)
	max := a.t.s.opt.QueueDepth
	for {
		a.mu.Lock()
		for len(a.queue) == 0 && !a.stopping {
			a.cond.Wait()
		}
		if len(a.queue) == 0 {
			a.mu.Unlock()
			return
		}
		n := len(a.queue)
		if n > max {
			n = max
		}
		window := make([]*Handle, n)
		copy(window, a.queue)
		rest := copy(a.queue, a.queue[n:])
		for i := rest; i < len(a.queue); i++ {
			a.queue[i] = nil
		}
		a.queue = a.queue[:rest]
		a.mu.Unlock()

		a.execMu.Lock()
		a.runWindow(window)
		// Idle-reclaim probe: an async burst can leave the ring above the
		// watermark with no further put to kick reclamation; probe after
		// every window so the backlog drains even if traffic stops here.
		a.lt.maybeKickReclaim()
		a.execMu.Unlock()

		a.mu.Lock()
		a.inflight.Add(int64(-len(window)))
		a.cond.Broadcast()
		a.mu.Unlock()
	}
}

// runWindow executes one admission window: maximal same-op runs in
// submission order, so mixed submissions keep their ordering semantics
// (a Get submitted after a Put in the same window sees it applied).
func (a *asyncThread) runWindow(hs []*Handle) {
	a.t.s.asyncWindow.Record(int64(len(hs)))
	for i := 0; i < len(hs); {
		j := i + 1
		for j < len(hs) && hs[j].op == hs[i].op {
			j++
		}
		switch hs[i].op {
		case opPut:
			a.runPuts(hs[i:j])
		case opGet:
			a.getPass(hs[i:j])
		case opDelete:
			a.deletePass(hs[i:j])
		}
		i = j
	}
}

// complete finishes h exactly once: result fields are set before the
// done channel closes, so every accessor sees them. t0 is the window's
// opening time on the async timeline (completion latency baseline).
func (a *asyncThread) complete(h *Handle, val []byte, err error, at, t0 int64) {
	if at < a.lastDone {
		at = a.lastDone
	} else {
		a.lastDone = at
	}
	h.val, h.err, h.doneNS = val, err, at
	a.t.s.asyncLat.Record(at - t0)
	h.finish()
}

// runPuts applies one run of puts, retrying stalled passes under the
// same reclamation protocol as the synchronous path (a stalled pass
// closed its publish window on the way out, so reclamation can progress).
// A store that closes while the run sleeps on a full ring fails the rest
// of it with ErrClosed.
func (a *asyncThread) runPuts(hs []*Handle) {
	lt := a.lt
	err := lt.untilApplied(func() error {
		if hs = hs[a.putPass(hs):]; len(hs) > 0 {
			return errRetryPut
		}
		return nil
	})
	for _, h := range hs {
		a.complete(h, nil, err, lt.Clk.Now(), lt.Clk.Now())
	}
}

// putPass is one epoch-scoped pass over a run of puts: one epoch enter,
// one PWB publish window. Each put is issued at base+asyncIssueNS and
// executes on a stage clock forked from the base clock, so device fixed
// latencies overlap across the run while NVM-channel bandwidth costs
// serialize (the shared sim.Resource orders them in call order). The
// base clock then advances to the latest stage end: the window's
// makespan. Returns how many handles were consumed (completed or, on a
// close, failed); a short count means the pass stalled on a full ring
// at that index.
func (a *asyncThread) putPass(hs []*Handle) int {
	lt := a.lt
	s := lt.s
	base := lt.Clk
	t0 := base.Now()
	endMax := t0
	lt.part.Enter()
	defer func() {
		// One Published per pass — including stall exits, where records
		// already published must become visible to the reclaimer.
		lt.buf.Published()
		lt.part.Exit()
		lt.Clk = base
		base.AdvanceTo(endMax)
	}()
	for i, h := range hs {
		if s.closed.Load() {
			for _, r := range hs[i:] {
				a.complete(r, nil, ErrClosed, base.Now(), t0)
			}
			return len(hs)
		}
		stage := sim.NewClock(base.Now() + asyncIssueNS)
		lt.Clk = stage
		err := lt.putStep(h.key, h.val, h.ts, false)
		lt.Clk = base
		if err == errRetryPut {
			return i // not issued: the retry pays for the doorbell
		}
		base.Advance(asyncIssueNS)
		if end := stage.Now(); end > endMax {
			endMax = end
		}
		a.complete(h, nil, err, stage.Now(), t0)
	}
	return len(hs)
}

// getPass resolves one run of gets: per-key fast paths (SVC, PWB) on
// stage clocks, then one merged batch read for Value Storage residents
// on the base clock — the MultiGet resolution order. Fast-path gets
// complete at their stage end; VS-resident gets complete when the
// merged read lands, which may be after later fast-path completions
// (reads may complete out of submission order; writes never do).
func (a *asyncThread) getPass(hs []*Handle) {
	lt := a.lt
	s := lt.s
	base := lt.Clk
	t0 := base.Now()
	endMax := t0
	lt.part.Enter()
	defer lt.part.Exit()
	if cap(lt.items) < len(hs) {
		lt.items = make([]scanItem, len(hs))
	}
	items := lt.items[:len(hs)]
	lt.pending = lt.pending[:0]
	a.pendIdx = a.pendIdx[:0]
	for i, h := range hs {
		base.Advance(asyncIssueNS)
		stage := sim.NewClock(base.Now())
		lt.Clk = stage
		items[i] = scanItem{key: h.key}
		nvs := len(lt.pending)
		if idx, ok := s.index.Lookup(stage, h.key); ok {
			items[i].idx = idx
			s.recent.mark(idx)
			lt.pending = lt.stageRead(&items[i], lt.pending)
		}
		resolved := len(lt.pending) == nvs
		if !resolved {
			a.pendIdx = append(a.pendIdx, i)
		}
		lt.Clk = base
		if end := stage.Now(); end > endMax {
			endMax = end
		}
		if resolved {
			a.completeGet(hs[i], items[i].val, stage.Now(), t0)
		}
	}
	base.AdvanceTo(endMax)
	if len(lt.pending) > 0 {
		lt.readVSBatch(lt.pending, false)
		for _, i := range a.pendIdx {
			a.completeGet(hs[i], items[i].val, base.Now(), t0)
		}
	}
}

// completeGet finishes a get handle, mapping a missing value (nil — a
// present empty value is non-nil) to ErrNotFound.
func (a *asyncThread) completeGet(h *Handle, val []byte, at, t0 int64) {
	if val == nil {
		a.complete(h, nil, ErrNotFound, at, t0)
	} else {
		a.complete(h, val, nil, at, t0)
	}
}

// deletePass applies one run of deletes under a single epoch enter,
// each on its own stage clock.
func (a *asyncThread) deletePass(hs []*Handle) {
	lt := a.lt
	base := lt.Clk
	t0 := base.Now()
	endMax := t0
	lt.part.Enter()
	defer func() {
		lt.part.Exit()
		lt.Clk = base
		base.AdvanceTo(endMax)
	}()
	for _, h := range hs {
		base.Advance(asyncIssueNS)
		stage := sim.NewClock(base.Now())
		lt.Clk = stage
		err := lt.deleteStep(h.key, h.ts)
		lt.Clk = base
		if end := stage.Now(); end > endMax {
			endMax = end
		}
		a.complete(h, nil, err, stage.Now(), t0)
	}
}
