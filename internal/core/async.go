package core

import (
	"bytes"
	"sync"
	"sync/atomic"

	"repro/internal/hsit"
)

// Asynchronous submission (§5.4 one layer up): PutAsync/GetAsync/
// DeleteAsync enqueue work on a per-thread admission loop and return a
// completion Handle immediately. The loop drains whatever has queued
// into one admission window — one epoch enter, one PWB publish window,
// one Value Storage batch — exactly the coalescing the TCQ already
// performs for SSD IO, applied to whole operations, and runs the window
// through the overlap frame below.

// asyncIssueNS is the per-step issue cost charged to a frame's present:
// ringing the doorbell and staging one SQE. It is the only strictly serial
// per-step software cost of the frame.
const asyncIssueNS = 120

// frame is the overlap frame, core's one way of keeping independent steps
// in flight together: an admission window's operations, a Scan's rows, a
// MultiGet's keys, a reclaim pass's HSIT checks and every relocation's
// pointer swings (swing) all run through it. Each step is issued
// asyncIssueNS after the one before, runs on the thread's one clock from
// there, and then rewinds that clock to its issue — the frame's present —
// so fixed device latencies (NVM load/store latency, flush waits) overlap
// across the steps while shared-bandwidth costs (the NVM DIMM channel, SSD
// transfer time) still serialize through the devices' sim.Resource, in
// call order: the latency-hiding / bandwidth-bound split of a real
// submission queue. Host execution stays serial and in step order, and
// whatever runs between steps (a relocation's chunk write) moves the
// present. join advances the clock once, to the latest step end: the
// makespan.
//
// Read steps leave their Value Storage residents in t.pending; readBatch
// fetches them as one batch (readVSBatch) issued when the last of those
// steps has ended, not when every step has.
type frame struct {
	t     *Thread
	at    int64 // the present the current step was issued from
	end   int64 // latest step end so far
	ready int64 // latest end of a read step that left its row to the batch
}

// fork opens a frame on t's clock, with an empty batch.
func (t *Thread) fork() frame {
	t.pending = t.pending[:0]
	return frame{t: t, end: t.Clk.Now()}
}

// step issues the next step: it saves the frame's present and charges the
// doorbell on t.Clk, which the step then runs on. land or abort ends it.
func (f *frame) step() {
	f.at = f.t.Clk.Now()
	f.t.Clk.Advance(asyncIssueNS)
}

// land ends the current step — the frame's present moves past its
// doorbell — and returns the virtual time it ended at.
func (f *frame) land() int64 { return f.rewind(f.at + asyncIssueNS) }

// abort takes back a step that was never issued — a put that found its
// ring full: the clock returns to the frame's present, nothing charged.
func (f *frame) abort() { f.t.Clk.Reset(f.at) }

// rewind folds the step's end into the makespan, takes t.Clk back to
// present and returns the step's end.
func (f *frame) rewind(present int64) int64 {
	at := f.t.Clk.Now()
	f.t.Clk.Reset(present)
	f.end = max(f.end, at)
	return at
}

// read resolves it as one step — the key index lookup first when lookup
// is set (a row straight from this thread's index walk comes with its
// idx), then the fast paths — and reports when the step ended and whether
// it resolved the item: a Value Storage resident is in t.pending instead,
// for readBatch. point says the item is a point read: its lookup goes on
// record in the read plane and its SVC hit may promote the entry. A scan's
// row does neither (readVSBatch marks the ones it fetched from Value
// Storage in the scanned plane).
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
	resolved = !found || t.stageRead(it, point)
	if at = f.land(); !resolved {
		f.ready = max(f.ready, at)
	}
	return at, resolved
}

// readBatch reads what the read steps so far left pending as one Value
// Storage batch — a step of its own that rings no doorbell, starts at
// ready and rewinds to the present — and returns when it landed (scan:
// see readVSBatch). A row that moved under the batch is read again alone
// inside that step. The items hold their values afterwards and the batch
// is empty again.
func (f *frame) readBatch(scan bool) int64 {
	t := f.t
	present := t.Clk.Now()
	t.Clk.Reset(f.ready)
	t.readVSBatch(t.pending, scan)
	for _, it := range t.pending {
		if it.p.IsNil() {
			t.readAlone(it, !scan)
		}
	}
	t.pending = t.pending[:0]
	return f.rewind(present)
}

// swing runs one record's settle — a relocation's conditional HSIT swing
// and its bookkeeping, on t.Clk — as a step of f, after settleHook. It is
// every WriteChunk settle callback's one body: the chunk write moved the
// frame's present, so each swing is issued after the write it points
// into, and the swings of a chunk overlap one another and the next
// chunk's write.
func (f *frame) swing(settle func() bool) bool {
	f.step()
	if settleHook != nil {
		settleHook(f.t)
	}
	ok := settle()
	f.land()
	return ok
}

// join closes the frame: the thread's clock advances to the end of the
// last step to finish.
func (f *frame) join() { f.t.Clk.AdvanceTo(f.end) }

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
// goroutine, any number of times, concurrently, until Release. A Handle
// completes exactly once; after the first Wait returns, every accessor
// observes the same result. Dropping a Handle without waiting is allowed
// — the operation still executes (a completed Put is durable whether or
// not anyone observes it) — and so is never releasing one: it is
// garbage-collected.
//
// A Handle returned by a submission owns one byte buffer holding its key
// copy and then either the put's value copy or the get's result, so
// Value's bytes are valid until Release. Release hands the handle, buffer
// and all, back to its thread for a later submission: that is what makes
// a steady stream of submissions allocation-free.
type Handle struct {
	op     asyncOp
	key    []byte
	val    []byte // put: input value until applied; get: result value
	buf    []byte // owned storage behind key and val (pooled handles only)
	ts     uint64 // nonzero: timestamped variant (PutTSAsync/DeleteTSAsync)
	err    error
	doneNS int64

	// done flips once the result fields are set; wg is released right
	// after, and is what Wait and Release block on.
	done atomic.Bool
	wg   sync.WaitGroup

	// cbMu guards cb against a concurrent completion; see OnDone.
	cbMu sync.Mutex
	cb   func(*Handle)

	// a is the thread whose free list Release returns the handle to; nil
	// for proxy and already-completed handles, which are never reused.
	a *asyncThread
}

// Wait blocks until the operation completes and returns its error:
// nil on success, ErrNotFound for a missing key (Get/Delete), ErrClosed
// if the store closed before the operation was admitted.
func (h *Handle) Wait() error {
	h.wg.Wait()
	return h.err
}

// Value blocks until the operation completes and returns its result.
// Only GetAsync produces a value; for Put/Delete it is always nil. The
// bytes are the handle's own: valid until Release.
func (h *Handle) Value() ([]byte, error) {
	h.wg.Wait()
	return h.val, h.err
}

// Done reports whether the operation has completed, without blocking.
func (h *Handle) Done() bool { return h.done.Load() }

// CompletedAt blocks until the operation completes and returns the
// virtual time (ns, on the thread's async timeline) at which it did.
// Completion times are monotone in completion order.
func (h *Handle) CompletedAt() int64 {
	h.wg.Wait()
	return h.doneNS
}

// OnDone registers fn to run exactly once when the handle completes,
// called from the completing goroutine — or inline, before OnDone
// returns, if the handle already completed. At most one callback per
// handle. The shard router uses it to compose replica fan-out handles
// without burning a goroutine per submission; fn must not block. A
// handle with a callback is released by the callback or not at all: the
// completing goroutine still hands it to fn after Wait has returned.
func (h *Handle) OnDone(fn func(*Handle)) {
	h.cbMu.Lock()
	if h.done.Load() {
		h.cbMu.Unlock()
		fn(h)
		return
	}
	h.cb = fn
	h.cbMu.Unlock()
}

// Release waits for the operation to complete and returns the handle to
// its thread for reuse: neither the handle nor the bytes Value returned
// may be used afterwards, by any goroutine. Release at most once. It is
// optional — an unreleased handle is garbage-collected — and a no-op on
// a handle the shard router composed (a proxy) or one that completed at
// submission with an error.
func (h *Handle) Release() {
	a := h.a
	if a == nil {
		return
	}
	h.wg.Wait()
	// A get whose result outgrew the buffer left it in a larger array of
	// its own: keep whichever is larger (a value is at most
	// hsit.MaxValueLen, so the free list pins a bounded amount).
	if cap(h.val) > cap(h.buf) {
		h.buf = h.val[:0]
	}
	h.key, h.val, h.err = nil, nil, nil
	a.mu.Lock()
	if len(a.free) < asyncMaxPending {
		a.free = append(a.free, h)
	}
	a.mu.Unlock()
}

// arm readies a fresh or released handle for one submission, copying key
// and, for a put, value into its buffer. A get's result is appended
// behind the key (see dst).
func (h *Handle) arm(op asyncOp, key, value []byte, ts uint64) {
	n := len(key) + len(value)
	if h.buf == nil || cap(h.buf) < n {
		h.buf = make([]byte, 0, n) // never nil, even for n = 0: see dst
	}
	b := append(append(h.buf[:0], key...), value...)
	h.op, h.key, h.val, h.ts, h.doneNS = op, b[:len(key):len(key)], nil, ts, 0
	if op == opPut {
		h.val = b[len(key):]
	}
	h.done.Store(false)
	h.wg.Add(1)
}

// dst is where a get appends its result: the buffer behind the key, never
// nil, so a present empty value stays distinguishable from a missing one.
func (h *Handle) dst() []byte { return h.buf[len(h.key):len(h.key)] }

// finish publishes the result — the fields are set before done flips and
// before wg lets Wait return — and then runs any registered callback. The
// handle is not touched after wg.Done but to hand it to the callback:
// from there on its owner may release it.
func (h *Handle) finish() {
	h.cbMu.Lock()
	h.done.Store(true)
	cb := h.cb
	h.cb = nil
	h.cbMu.Unlock()
	h.wg.Done()
	if cb != nil {
		cb(h)
	}
}

// NewProxyHandle returns an unresolved Handle plus the function that
// resolves it. The shard router aggregates per-replica completions into
// one caller-visible handle this way. resolve must be called exactly
// once; doneNS is the completion time reported by CompletedAt. A proxy
// is never reused: its Release is a no-op.
func NewProxyHandle() (h *Handle, resolve func(val []byte, err error, doneNS int64)) {
	h = &Handle{}
	h.wg.Add(1)
	return h, func(val []byte, err error, doneNS int64) {
		h.val, h.err, h.doneNS = val, err, doneNS
		h.finish()
	}
}

// completedHandle returns an already-completed Handle carrying err
// (immediate rejections: store closed, value too large).
func completedHandle(err error) *Handle {
	h := &Handle{err: err}
	h.done.Store(true)
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
	free     []*Handle    // released handles, newest last; at most asyncMaxPending
	inflight atomic.Int64 // also read lock-free by the in-flight gauge
	started  bool
	stopping bool
	loopDone chan struct{}

	// lastDone makes completion times monotone in completion order
	// (steps may finish out of order within a window). Only the
	// loop goroutine touches it.
	lastDone int64

	window  []*Handle // loop scratch: the window being run
	waiting []*Handle // pass scratch: the gets behind lt.pending, in its order
}

// PutTSAsync submits a durable write stamped ts and returns its
// completion Handle. The write obeys the same durability contract as Put
// — when the Handle completes successfully the value is persisted — but
// executes on the thread's async timeline, coalesced with other pending
// submissions; the admission loop applies it through putStep's
// last-writer-wins gate (stamp 0 is unstamped).
//
// Unlike the synchronous methods, PutTSAsync (and GetAsync/DeleteTSAsync)
// may be called from any goroutine, concurrently; key and value are
// copied before return. Submissions on one Thread apply in submission
// order. If asyncMaxPending submissions are already in flight the call
// blocks until the loop catches up (backpressure, not error).
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
	return t.async.submit(opPut, key, value, ts)
}

// GetAsync submits a read and returns its completion Handle; the value
// arrives via Handle.Value (nil + ErrNotFound for a missing key). A read
// submitted after a write on the same Thread observes that write, and
// never one submitted after it (see pass). A get the SVC or the PWB serves
// completes at the end of its own step of the window, overlapped with the
// window's other operations; one that goes to Value Storage completes
// when the window's one batch read lands. See PutTSAsync for the
// concurrency contract.
func (t *Thread) GetAsync(key []byte) *Handle {
	s := t.s
	if s.closed.Load() {
		return completedHandle(ErrClosed)
	}
	s.stats.gets.Add(1)
	s.stats.asyncGets.Add(1)
	return t.async.submit(opGet, key, nil, 0)
}

// DeleteTSAsync submits a delete stamped ts and returns its completion
// Handle: nil if a live value was removed here, ErrNotFound if the key
// was missing or only the tombstone was recorded (superseded). See
// PutTSAsync for the concurrency contract.
func (t *Thread) DeleteTSAsync(key []byte, ts uint64) *Handle {
	s := t.s
	if s.closed.Load() {
		return completedHandle(ErrClosed)
	}
	s.stats.deletes.Add(1)
	s.stats.asyncDeletes.Add(1)
	return t.async.submit(opDelete, key, nil, ts)
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

// submit enqueues one operation on the admission loop, applying
// backpressure at asyncMaxPending in-flight submissions, and lazily starts
// the loop goroutine on first use. Its handle is the newest released one,
// or a fresh one when none is: key and value are copied into it.
func (a *asyncThread) submit(op asyncOp, key, value []byte, ts uint64) *Handle {
	s := a.t.s
	a.mu.Lock()
	for !a.stopping && !s.closed.Load() && a.inflight.Load() >= asyncMaxPending {
		a.cond.Wait()
	}
	if a.stopping || s.closed.Load() {
		a.mu.Unlock()
		return completedHandle(ErrClosed)
	}
	var h *Handle
	if n := len(a.free); n > 0 {
		h = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
	} else {
		h = &Handle{a: a}
	}
	h.arm(op, key, value, ts)
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
		window := append(a.window[:0], a.queue[:n]...)
		rest := copy(a.queue, a.queue[n:])
		for i := rest; i < len(a.queue); i++ {
			a.queue[i] = nil
		}
		a.queue = a.queue[:rest]
		a.mu.Unlock()

		a.execMu.Lock()
		a.runWindow(window)
		a.execMu.Unlock()

		clear(window) // completed: their owners may have released them
		a.window = window[:0]

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
		a.complete(h, nil, err, lt.Clk.Now())
	}
}

// complete finishes h exactly once: result fields are set before the
// done channel closes, so every accessor sees them.
func (a *asyncThread) complete(h *Handle, val []byte, err error, at int64) {
	if at < a.lastDone {
		at = a.lastDone
	} else {
		a.lastDone = at
	}
	h.val, h.err, h.doneNS = val, err, at
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
	lt.part.Enter()
	f := lt.fork()
	defer func() {
		a.landReads(&f)
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
				a.complete(r, nil, ErrClosed, lt.Clk.Now())
			}
			return len(hs)
		}
		if h.op == opGet {
			items[i] = scanItem{key: h.key, dst: h.dst()}
			if at, resolved := f.read(&items[i], true, true); resolved {
				a.completeGet(h, items[i].val, at)
			} else {
				a.waiting = append(a.waiting, h)
			}
			continue
		}
		for _, it := range lt.pending {
			if bytes.Equal(it.key, h.key) {
				a.landReads(&f)
				break
			}
		}
		f.step()
		var err error
		if h.op == opDelete {
			err = lt.deleteStep(h.key, h.ts)
		} else if err = lt.putStep(h.key, h.val, h.ts); err == errRetryPut {
			f.abort() // not issued: the retry pays for the doorbell
			return i
		}
		a.complete(h, nil, err, f.land())
	}
	return len(hs)
}

// landReads reads the pass's Value Storage batch and completes the gets
// that were waiting for it.
func (a *asyncThread) landReads(f *frame) {
	pending := a.lt.pending
	at := f.readBatch(false)
	for i, h := range a.waiting {
		a.completeGet(h, pending[i].val, at)
	}
	a.waiting = a.waiting[:0]
}

// completeGet finishes a get handle, mapping a missing value (nil — a
// present empty value is non-nil) to ErrNotFound.
func (a *asyncThread) completeGet(h *Handle, val []byte, at int64) {
	if val == nil {
		a.complete(h, nil, ErrNotFound, at)
	} else {
		a.complete(h, val, nil, at)
	}
}
