package core

import (
	"bytes"
	"sync"
	"sync/atomic"

	"repro/internal/hsit"
	"repro/internal/sim"
)

// Asynchronous submission (§5.4 one layer up): PutAsync/GetAsync/
// DeleteAsync enqueue work on a per-thread admission loop and return a
// completion Handle immediately. The loop drains whatever has queued
// into one admission window — one epoch enter, one PWB publish window,
// one Value Storage batch — exactly the coalescing the TCQ already
// performs for SSD IO, applied to whole operations, and runs the window
// through the overlap frame below.

// asyncIssueNS is the per-step issue cost charged to a frame's base
// clock: ringing the doorbell and staging one SQE. It is the only
// strictly serial per-step software cost of the frame.
const asyncIssueNS = 120

// frame is the overlap frame, core's one way of keeping independent steps
// in flight together: an admission window's operations, a Scan's rows and
// a MultiGet's keys all run through it. Each step is issued asyncIssueNS
// after the one before on the base clock — the thread's own, parked
// meanwhile — and runs on the thread's stage clock forked there, so fixed
// device latencies (NVM load/store latency, flush waits) overlap across
// the steps while shared-bandwidth costs (the NVM DIMM channel, SSD
// transfer time) still serialize through the devices' sim.Resource, in
// call order: the latency-hiding / bandwidth-bound split of a real
// submission queue. Host execution stays serial and in step order. join
// advances the base clock once, to the latest step end: the makespan.
//
// Read steps leave their Value Storage residents in t.pending; readBatch
// fetches them as one batch (readVSBatch) issued when the last of those
// steps has ended, not when every step has.
type frame struct {
	t     *Thread
	base  *sim.Clock
	end   int64 // latest step end so far
	ready int64 // latest end of a read step that left its row to the batch
}

// fork opens a frame on t's clock, with an empty batch.
func (t *Thread) fork() frame {
	t.pending = t.pending[:0]
	return frame{t: t, base: t.Clk, end: t.Clk.Now()}
}

// step issues the next step: until land, t.Clk is the stage clock. A step
// that is not landed — a put that found its ring full — was not issued:
// join takes the thread back to the base clock with nothing charged.
func (f *frame) step() {
	f.t.stage.Reset(f.base.Now() + asyncIssueNS)
	f.t.Clk = &f.t.stage
}

// land ends the current step — its doorbell is paid on the base clock —
// and returns the virtual time it ended at.
func (f *frame) land() int64 {
	f.base.Advance(asyncIssueNS)
	return f.settle()
}

// settle parks the stage clock and folds its time into the makespan.
func (f *frame) settle() int64 {
	at := f.t.stage.Now()
	f.t.Clk = f.base
	f.end = max(f.end, at)
	return at
}

// read resolves it as one step — the key index lookup first when lookup
// is set (a row straight from this thread's index walk comes with its
// idx), then the fast paths — and reports when the step ended and whether
// it resolved the item: a Value Storage resident is in t.pending instead,
// for readBatch. point says the lookup is a point read, which goes on
// record in the read-recency filter; a scan's row does not (readVSBatch
// marks the ones it fetched from Value Storage).
func (f *frame) read(it *scanItem, lookup, point bool) (at int64, resolved bool) {
	t := f.t
	f.step()
	found := !lookup
	if lookup {
		if it.idx, found = t.s.index.Lookup(t.Clk, it.key); found && point {
			t.s.pop.mark(it.idx)
		}
	}
	// A key missing from the index is resolved: its value stays nil.
	resolved = !found || t.stageRead(it)
	if at = f.land(); !resolved {
		f.ready = max(f.ready, at)
	}
	return at, resolved
}

// readBatch reads what the read steps so far left pending as one Value
// Storage batch — a step of its own that rings no doorbell and starts at
// ready — and returns when it landed (scan: see readVSBatch). The items
// hold their values afterwards and the batch is empty again.
func (f *frame) readBatch(scan bool) int64 {
	t := f.t
	t.stage.Reset(f.ready)
	t.Clk = &t.stage
	t.readVSBatch(t.pending, scan)
	t.pending = t.pending[:0]
	return f.settle()
}

// join closes the frame: the thread is back on its base clock, advanced
// to the end of the last step to finish.
func (f *frame) join() {
	f.t.Clk = f.base
	f.base.AdvanceTo(f.end)
}

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

	waiting []*Handle // pass scratch: the gets behind lt.pending, in its order
}

// PutAsync submits a durable write and returns its completion Handle.
// The write obeys the same durability contract as Put — when the Handle
// completes successfully the value is persisted — but executes on the
// thread's async timeline, coalesced with other pending submissions.
//
// Unlike the synchronous methods, PutAsync (and GetAsync/DeleteAsync)
// may be called from any goroutine, concurrently; key and value are
// copied before return. Submissions on one Thread apply in submission
// order. If asyncMaxPending submissions are already in flight the call
// blocks until the loop catches up (backpressure, not error).
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
// submitted after a write on the same Thread observes that write, and
// never one submitted after it (see pass). A get the SVC or the PWB serves
// completes at the end of its own step of the window, overlapped with the
// window's other operations; one that goes to Value Storage completes
// when the window's one batch read lands. See PutAsync for the
// concurrency contract.
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

// asyncMaxPending bounds in-flight async submissions per Thread:
// PutAsync/GetAsync/DeleteAsync block (backpressure) at the bound.
const asyncMaxPending = 256

// submit enqueues h on the admission loop, applying backpressure at
// asyncMaxPending in-flight submissions, and lazily starts the loop
// goroutine on first use.
func (a *asyncThread) submit(h *Handle) *Handle {
	s := a.t.s
	a.mu.Lock()
	for !a.stopping && !s.closed.Load() && a.inflight.Load() >= asyncMaxPending {
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
		a.execMu.Unlock()

		a.mu.Lock()
		a.inflight.Add(int64(-len(window)))
		a.cond.Broadcast()
		a.mu.Unlock()
	}
}

// runWindow executes one admission window, retrying a pass that stalled on
// a full ring under the same reclamation protocol as the synchronous path
// (the stalled pass closed its publish window and left its epoch on the way
// out, so reclamation can progress); the retry resumes at the put that
// stalled. A store that closes while the window sleeps on a full ring
// fails the rest of it with ErrClosed.
func (a *asyncThread) runWindow(hs []*Handle) {
	lt := a.lt
	lt.s.asyncWindow.Record(int64(len(hs)))
	err := lt.untilApplied(func() error {
		if hs = hs[a.pass(hs):]; len(hs) > 0 {
			return errRetryPut
		}
		return nil
	})
	for _, h := range hs {
		a.complete(h, nil, err, lt.Clk.Now(), lt.Clk.Now())
	}
}

// complete finishes h exactly once: result fields are set before the
// done channel closes, so every accessor sees them. t0 is the pass's
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

// pass is one epoch-scoped pass over a window: one epoch enter, one PWB
// publish window, one frame — every put, get and delete a step of it, run
// in submission order, so a read after a write sees it applied. A put or
// delete completes at its step's end; so does a get the fast paths (SVC,
// PWB) resolve. The gets left to Value Storage share one batch for the
// whole window and complete when it lands, possibly after later
// operations (reads may complete out of submission order; writes never
// do) — but always before a write to the same key runs: the batch re-reads
// a record that moved under it from wherever the key points *then*, and
// that must not be a later submission's value. The batch is read, at the
// latest, before the pass leaves its epoch.
//
// It returns how many handles were consumed (completed or, on a close,
// failed); a short count means a put found its ring full at that index.
func (a *asyncThread) pass(hs []*Handle) int {
	lt := a.lt
	t0 := lt.Clk.Now()
	lt.part.Enter()
	f := lt.fork()
	defer func() {
		a.landReads(&f, t0)
		// One Published per pass — including stall exits, where records
		// already published must become visible to the reclaimer.
		lt.buf.Published()
		lt.part.Exit()
		f.join()
	}()
	if cap(lt.items) < len(hs) {
		lt.items = make([]scanItem, len(hs))
	}
	items := lt.items[:len(hs)]
	for i, h := range hs {
		if lt.s.closed.Load() {
			for _, r := range hs[i:] {
				a.complete(r, nil, ErrClosed, f.base.Now(), t0)
			}
			return len(hs)
		}
		if h.op == opGet {
			items[i] = scanItem{key: h.key}
			if at, resolved := f.read(&items[i], true, true); resolved {
				a.completeGet(h, items[i].val, at, t0)
			} else {
				a.waiting = append(a.waiting, h)
			}
			continue
		}
		for _, it := range lt.pending {
			if bytes.Equal(it.key, h.key) {
				a.landReads(&f, t0)
				break
			}
		}
		f.step()
		var err error
		if h.op == opDelete {
			err = lt.deleteStep(h.key, h.ts)
		} else if err = lt.putStep(h.key, h.val, h.ts, false); err == errRetryPut {
			return i // not issued: the retry pays for the doorbell
		}
		a.complete(h, nil, err, f.land(), t0)
	}
	return len(hs)
}

// landReads reads the pass's Value Storage batch and completes the gets
// that were waiting for it.
func (a *asyncThread) landReads(f *frame, t0 int64) {
	pending := a.lt.pending
	at := f.readBatch(false)
	for i, h := range a.waiting {
		a.completeGet(h, pending[i].val, at, t0)
	}
	a.waiting = a.waiting[:0]
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
