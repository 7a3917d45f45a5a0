package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/hsit"
	"repro/internal/record"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/valuestore"
)

// dramCost models a DRAM copy: one DRAM access plus 15 GB/s transfer.
func dramCost(n int) int64 { return sim.DRAMLatency + sim.TransferNS(n, 15_000_000_000) }

// cloneBytes copies b into a fresh, always non-nil slice: a present key
// with an empty value must stay distinguishable from a missing key
// (MultiGet reports absence as a nil entry).
func cloneBytes(b []byte) []byte { return append(make([]byte, 0, len(b)), b...) }

// errRetryPut signals that a Put attempt must restart outside its epoch
// (the PWB was full; space can only be released once the thread unpins).
var errRetryPut = errors.New("prism: retry put")

func errValueTooLarge(n int) error {
	return fmt.Errorf("%w: %d bytes exceeds max %d", ErrValueTooLarge, n, hsit.MaxValueLen)
}

// Put inserts or updates key with value. The write is durable when Put
// returns (§5.4 durable linearizability): the value is persisted in the
// thread's PWB before its HSIT forward pointer is published.
func (t *Thread) Put(key, value []byte) error { return t.PutTS(key, value, 0) }

// PutTS is Put carrying a logical timestamp: the write applies only if
// ts is newer than every stamp already recorded for key (last writer
// wins; a superseded write returns nil — it is not an error for a
// replica to already hold something newer). Stamp 0 is the plain Put.
func (t *Thread) PutTS(key, value []byte, ts uint64) error {
	s := t.s
	if s.closed.Load() {
		return ErrClosed
	}
	if len(value) > hsit.MaxValueLen {
		return errValueTooLarge(len(value))
	}
	s.stats.puts.Add(1)
	s.stats.userBytesWritten.Add(int64(len(value)))
	t0 := t.Clk.Now()
	defer func() { s.latPut.Record(t.Clk.Now() - t0) }()
	return t.untilApplied(func() error {
		// The thread's PWB ring (and its publish-pending window) is shared
		// with the async admission loop; execMu keeps whole append windows
		// mutually exclusive with this attempt.
		t.async.execMu.Lock()
		defer t.async.execMu.Unlock()
		t.part.Enter()
		defer t.part.Exit()
		return t.putStep(key, value, ts, true)
	})
}

// untilApplied runs pass — one epoch-scoped write attempt on t's PWB ring
// — until it stops reporting errRetryPut. A stalled pass found the ring
// full before it charged anything to the clock (reserve), has left its
// epoch and closed its publish window; the thread then sleeps until the
// ring's tail has moved, or a reclaim pass ended without releasing
// anything and the reclaimer wants to be kicked again. A pass that
// applied probes the ring against the watermark once (maybeKickReclaim).
// It is the one stall protocol, and the one probe, of the sync single op,
// the sync batch and the async admission window.
func (t *Thread) untilApplied(pass func() error) error {
	s := t.s
	for attempt := 0; attempt < 1_000_000; attempt++ {
		seq := t.buf.WaitSeq()
		err := pass()
		if err != errRetryPut {
			if err == nil {
				t.maybeKickReclaim()
			}
			return err
		}
		// Out of the epoch now: help grace along. Under SyncVSWrites this
		// thread ran the reclaim pass itself and its grant is two advances
		// from landing; otherwise the reclaimer does the same after its pass.
		s.em.Collect()
		s.em.Collect()
		if !t.buf.Wait(seq) {
			return ErrClosed
		}
	}
	return errors.New("prism: PWB reclamation stalled")
}

// reserve makes sure t's ring has room for a value of n bytes before the
// put that carries it touches the key index, and that the put does not
// run ahead, in virtual time, of the reclaim pass that made the room: the
// clock advances to the release time of the ring space the record will
// land in (pwb.Buffer.Room) — the put's one wait, and the model's stall:
// whether the thread also slept on the ring says how the host scheduled
// the reclaimer's goroutine, not how fast the modeled reclaimer is. It
// returns false when the ring is full: reclamation has been asked for,
// nothing was charged to the clock, and the caller reports errRetryPut.
func (t *Thread) reserve(n int) bool {
	s := t.s
	releasedAt, ok := t.buf.Room(n)
	if !ok {
		s.stats.putStalls.Add(1)
		// Feedback for the adaptive watermark: a full ring means
		// reclamation started too late — lower the trigger.
		s.adaptWatermark(false)
		if s.opt.SyncVSWrites {
			t.reclaimInline()
		} else {
			kick(s.reclaimChs[t.id], t.Clk.Now())
		}
		return false
	}
	if wait := releasedAt - t.Clk.Now(); wait > 0 {
		t.Clk.Advance(wait)
		s.stats.putsStalled.Add(1)
		s.putStallNS.Record(wait)
	}
	return true
}

// putStep is the one index-traversal-plus-write for key that every put
// path runs (sync, batch and async). The caller holds the epoch guard
// and the ring's execMu. clearPending selects whether each publish
// immediately lifts the PWB publish-pending mark (single-op Put) or the
// caller lifts it once for a whole append window (a deferred
// Buffer.Published).
//
// The stamp rule, shared with deleteStep: stamp 0 is the plain,
// unstamped operation, which leaves the newest-stamp map alone; a nonzero
// stamp is gated by that map under the key's stripe lock, held across the
// check, the write and the map update so concurrent writers to one key
// apply in stamp order. A write no newer than the recorded stamp is
// superseded and returns nil.
func (t *Thread) putStep(key, value []byte, ts uint64, clearPending bool) error {
	s := t.s
	if ts != 0 {
		st := s.repl.stripe(key)
		st.Lock()
		defer st.Unlock()
		if cur, _ := s.repl.newest(key); cur >= ts {
			return nil
		}
	}
	if !t.reserve(len(value)) {
		return errRetryPut
	}
	start := t.Clk.Now() // where the record's body starts: it needs nothing the lookup finds
	idx, found := s.index.Lookup(t.Clk, key)
	if !found {
		var err error
		if idx, err = s.table.Alloc(t.Clk); err != nil {
			return err
		}
		s.pop.forget(idx) // whoever held the slot before, nobody has read or written this key
	}
	err := t.writeAndPublish(idx, value, start, clearPending)
	if !found {
		if err != nil {
			s.table.Free(idx) // never published, never inserted
		} else if winner, inserted := s.index.Insert(t.Clk, key, idx); !inserted {
			// Another thread inserted the key first. Our entry is
			// orphaned: clear it and redo the write against the winner's
			// entry (the record must carry the winner's backward pointer
			// to stay well-coupled). The second record needs room of its
			// own; without it the whole put retries and finds the winner.
			old, svc := s.table.Clear(t.Clk, idx)
			t.invalidateOld(idx, old, svc)
			s.table.Free(idx)
			if !t.reserve(len(value)) {
				return errRetryPut
			}
			err = t.writeAndPublish(winner, value, t.Clk.Now(), clearPending)
		}
	}
	if err == nil && ts != 0 {
		s.repl.set(key, ts, false)
	}
	return err
}

// writeAndPublish appends the value to the thread's PWB — the caller has
// reserved the room — with idx as its backward pointer and publishes the
// new location in HSIT, invalidating whatever the entry pointed to
// before. Only the record's header needs idx, so its body — the value's
// stores and flushes — runs beside the key index lookup that found idx:
// the put issues the read of the entry the publish will CAS when the
// lookup ends, rewinds t.Clk to start, the time the caller reserved its
// room at, and appends from there, sealing — the header's store and flush
// and the fence — no earlier than the lookup's end (DESIGN.md §3.5). When
// clearPending is false the publish-pending mark set by Append stays in
// place for the caller's batch-wide Published call.
func (t *Thread) writeAndPublish(idx uint64, value []byte, start int64, clearPending bool) error {
	s := t.s
	found := t.Clk.Now()
	ready := s.table.Prefetch(t.Clk, idx)
	t.Clk.Reset(start)
	off, _, err := t.buf.AppendAt(t.Clk, idx, value, found)
	if err != nil {
		t.Clk.AdvanceTo(found) // nothing appended: the put ends with its lookup
		return err
	}
	old, svc := s.table.PublishAt(t.Clk, idx, hsit.Pointer{Media: hsit.PWB, Len: len(value), Off: off}, ready)
	// Lift the publish-pending mark set by Append: the reclaimer may now
	// include this record in its scan, and is guaranteed to observe the
	// pointer just published (so it classifies the record as live).
	if clearPending {
		t.buf.Published()
	}
	s.pop.wrote(idx)
	t.invalidateOld(idx, old, svc)
	if s.opt.SyncVSWrites && t.buf.Used() >= s.opt.ChunkSize {
		// Ablation: no asynchronous bandwidth-optimized write — the
		// application thread migrates PWB contents to Value Storage on
		// its own clock, putting the SSD write on the critical path.
		t.reclaimInline()
	}
	return nil
}

// maybeKickReclaim triggers background reclamation at the effective
// watermark (§4.3: 50% by default; the adaptive controller moves it).
func (t *Thread) maybeKickReclaim() {
	if t.buf.Utilization() < t.s.effectiveWatermark() {
		return
	}
	if t.s.opt.SyncVSWrites {
		// The put thread owns its buffer's scans in sync mode, so reclaim
		// inline at the trigger: passes are watermark-sized instead of
		// always full-ring at ErrFull, which is what lets the adaptive
		// controller bound the reclamation share of a put's latency. The
		// put crossing the trigger absorbs the whole pass — a put-latency
		// stall by construction — so it is also the controller's decay
		// signal: the trigger shrinks until pass cost stops dominating
		// the stalled put's latency.
		t.s.adaptWatermark(false)
		t.reclaimInline()
		t.s.em.Collect()
		return
	}
	kick(t.s.reclaimChs[t.id], t.Clk.Now())
}

// invalidateOld cleans up the location a Publish displaced: a superseded
// Value Storage record loses its validity bit; a superseded PWB record
// simply becomes ill-coupled (§4.3). Any cached copy — svc is the handle
// the publish found in the entry after its install — is unpublished and
// dropped, since it now holds a stale value.
func (t *Thread) invalidateOld(idx uint64, old hsit.Pointer, svc uint64) {
	s := t.s
	if old.Media == hsit.VS {
		s.vsm.Invalidate(old.Off, old.Len)
	}
	if svc != 0 && s.cache != nil && s.table.CasSVC(t.Clk, idx, svc, 0) {
		s.cache.Invalidate(idx, svc)
	}
}

// Get returns the current value for key. Resolution order is the paper's
// fast-path order: SVC (DRAM) -> PWB (NVM) -> Value Storage (SSD, via
// thread combining), admitting SSD-read values into the SVC (§4.4).
// Whichever medium serves it, the read goes on record in the read-recency
// filter (admit.go).
func (t *Thread) Get(key []byte) ([]byte, error) {
	s := t.s
	if s.closed.Load() {
		return nil, ErrClosed
	}
	t.part.Enter()
	defer t.part.Exit()
	s.stats.gets.Add(1)
	t0 := t.Clk.Now()
	defer func() { s.latGet.Record(t.Clk.Now() - t0) }()

	idx, ok := s.index.Lookup(t.Clk, key)
	if !ok {
		return nil, ErrNotFound
	}
	s.pop.mark(idx)
	for attempt := 0; attempt < 1000; attempt++ {
		val, err, retry := t.resolve(idx, key, true)
		if !retry {
			return val, err
		}
	}
	return nil, fmt.Errorf("prism: value for %q kept moving; giving up", key)
}

// svcRead resolves idx through the SVC with the read-side currency
// check: a cached value counts as a hit only while the HSIT entry's
// publish version still equals the version it was admitted under. A
// mismatch means the entry is not current — either an in-flight
// admission that lost its race with a writer (published stale bytes for
// a few instructions before its own guard retracts them), or a value
// that GC / the scan rewrite relocated (bytes unchanged, version
// bumped). Either way the entry is retracted so the next Value Storage
// read re-admits under the current version. The check deliberately uses
// the version, not the forward pointer: recycled PWB/chunk offsets can
// make a stale pointer word bit-identical to the current one. It reads
// the entry's SVC handle, one DRAM access, and nothing else of the entry.
func (t *Thread) svcRead(idx uint64) ([]byte, bool) {
	s := t.s
	if s.cache == nil {
		return nil, false
	}
	h := s.table.SVC(t.Clk, idx)
	if h == 0 {
		return nil, false
	}
	v, ver, ok := s.cache.Lookup(idx, h)
	if !ok {
		return nil, false
	}
	if s.table.Version(idx) != ver {
		if s.table.CasSVC(t.Clk, idx, h, 0) {
			s.cache.Invalidate(idx, h)
		}
		return nil, false
	}
	t.Clk.Advance(dramCost(len(v)))
	s.stats.svcHits.Add(1)
	return v, true
}

// fastResult is the outcome of one resolveFast attempt.
type fastResult uint8

const (
	fastDone  fastResult = iota // it.val set, or left nil: deleted under us
	fastVS                      // Value Storage resident: it.p/it.ver set for the SSD read
	fastMoved                   // superseded while reading the PWB: re-resolve
)

// resolveFast is the read path's one fast-path attempt for an item whose
// idx is known (§4.4 resolution order). The forward pointer's NVM read is
// issued first and the SVC tried while it is in flight, so a hit costs a
// DRAM access for the handle and never waits for the pointer. On a miss —
// the publish version was snapshotted before both reads, because SVC
// admission keeps bytes only if the version is unchanged (and even) at
// publish time, which certifies no write overlapped the read — the pointer
// is waited out: a PWB read re-checked against the pointer, or a Value
// Storage location left for the caller to read (alone in resolve, merged
// in readVSBatch).
func (t *Thread) resolveFast(it *scanItem) fastResult {
	s := t.s
	it.ver = s.table.Version(it.idx)
	ready := s.table.Prefetch(t.Clk, it.idx)
	if v, ok := t.svcRead(it.idx); ok {
		it.val = it.copyOut(v)
		return fastDone
	}
	p := s.table.LoadAt(t.Clk, it.idx, ready)
	switch p.Media {
	case hsit.PWB:
		var v []byte
		if it.dst != nil {
			v = s.pwbOf(p).AppendValue(t.Clk, p.Off, p.Len, it.dst)
		} else {
			v = s.pwbOf(p).ReadValue(t.Clk, p.Off, p.Len)
		}
		if s.table.Load(nil, it.idx) != p {
			return fastMoved
		}
		s.stats.pwbHits.Add(1)
		it.val = v
	case hsit.VS:
		it.p = p
		return fastVS
	}
	return fastDone
}

// stageRead resolves it on the fast paths, or leaves it in t.pending for
// the caller's merged Value Storage read and reports false (the read step
// of a frame: Scan, MultiGet and the async pass share it). A value that
// moved mid-read takes the slow path.
func (t *Thread) stageRead(it *scanItem) (resolved bool) {
	switch t.resolveFast(it) {
	case fastVS:
		t.pending = append(t.pending, it)
		return false
	case fastMoved:
		it.val = t.getOnce(it.idx, it.key)
	}
	return true
}

// resolve reads the value behind HSIT entry idx once. retry reports that
// the location changed mid-read (reclamation/GC migration) and the caller
// should re-resolve.
func (t *Thread) resolve(idx uint64, key []byte, admit bool) (val []byte, err error, retry bool) {
	s := t.s
	it := scanItem{key: key, idx: idx}
	switch t.resolveFast(&it) {
	case fastMoved:
		return nil, nil, true
	case fastDone:
		if it.val == nil {
			return nil, ErrNotFound, false
		}
		return it.val, nil, false
	}
	devIdx, local := valuestore.SplitOff(it.p.Off)
	if !s.vsm.Stores[devIdx].IsValid(local) {
		return nil, nil, true // migrated before we read
	}
	req := s.vsm.Stores[devIdx].ReadAt(local, it.p.Len)
	req.UserData = uint64(devIdx)
	t.reqs = append(t.reqs[:0], req)
	t.readVS(t.reqs, 1)
	v, err := record.Coupled(req.Data, idx, it.p.Len)
	if err != nil {
		return nil, nil, true // chunk recycled under us
	}
	if admit {
		s.admitToSVC(t.Clk, idx, it.ver, v)
	}
	// The buffer was read for this call alone and the SVC keeps a copy of
	// its own: the value is returned in place.
	return v, nil, false
}

// Delete removes key. The HSIT entry is reclaimed after two epochs
// (§5.4: safe reclamation of deleted values and entries).
func (t *Thread) Delete(key []byte) error { return t.deleteSync(key, 0) }

// DeleteTS is Delete carrying a logical timestamp. It always records the
// tombstone when ts is newest — even for a key this replica never held —
// so a divergent peer's stale value cannot resurrect through it. found
// reports whether a live value was actually removed here; a superseded
// delete returns (false, nil). Stamp 0 is the plain Delete.
func (t *Thread) DeleteTS(key []byte, ts uint64) (found bool, err error) {
	if err = t.deleteSync(key, ts); err == ErrNotFound {
		return false, nil
	}
	return err == nil, err
}

func (t *Thread) deleteSync(key []byte, ts uint64) error {
	s := t.s
	if s.closed.Load() {
		return ErrClosed
	}
	t.part.Enter()
	defer t.part.Exit()
	s.stats.deletes.Add(1)
	return t.deleteStep(key, ts)
}

// deleteStep is one delete under the caller's epoch guard, shared by the
// sync path and the async admission loop; ts follows putStep's stamp
// rule. A stamped delete records its tombstone whether or not a live
// value was removed. ErrNotFound reports that none was (the key was
// absent, or the delete was superseded).
func (t *Thread) deleteStep(key []byte, ts uint64) error {
	s := t.s
	if ts != 0 {
		st := s.repl.stripe(key)
		st.Lock()
		defer st.Unlock()
		if cur, _ := s.repl.newest(key); cur >= ts {
			return ErrNotFound
		}
		// The tombstone goes first: a pull that finds the key gone must find
		// it superseded, not a live stamp claiming a value that is not there
		// (shard.pull reads the two without the stripe).
		s.repl.set(key, ts, true)
	}
	if idx, ok := s.index.Delete(t.Clk, key); ok {
		old, svc := s.table.Clear(t.Clk, idx)
		t.invalidateOld(idx, old, svc)
		s.table.Free(idx)
		return nil
	}
	return ErrNotFound
}

// KV is one key-value pair yielded by Scan.
type KV struct {
	Key   []byte
	Value []byte
}

// Scan visits up to count pairs with key >= start in key order, calling
// fn for each until it returns false: the index walk, then the rows (see
// readRows) — the two halves ScanKeys and ReadRows export to the shard
// router, back to back on one store, with the walk's HSIT index standing
// in for the row's own lookup.
func (t *Thread) Scan(start []byte, count int, fn func(kv KV) bool) error {
	s := t.s
	if s.closed.Load() {
		return ErrClosed
	}
	t.part.Enter()
	defer t.part.Exit()
	t0 := t.Clk.Now()
	// The row slab leaves the thread while fn runs, so an operation fn
	// issues on this thread cannot overwrite the rows being yielded.
	items := t.items[:0]
	t.items = nil
	defer func() {
		t.items = items
		s.latScan.Record(t.Clk.Now() - t0)
	}()

	collect := func(key []byte, idx uint64) bool {
		items = append(items, scanItem{key: cloneBytes(key), idx: idx})
		return true
	}
	t.walk(start, count, collect)
	if scanHook != nil {
		scanHook(t)
	}
	for n, want := 0, count; ; {
		// An item deleted between the walk and its row step keeps a nil val
		// and is skipped. A counted scan it left short walks on past its
		// last key for as many rows again, so a short scan always means the
		// index ran out: the router's range scan then moves to the next range.
		t.readRows(items[n:], false)
		dropped := 0
		for i := n; i < len(items); i++ {
			if items[i].val == nil {
				dropped++
			}
		}
		if count <= 0 || dropped == 0 || len(items)-n < want {
			break
		}
		n, want = len(items), dropped
		s.index.Scan(t.Clk, append(cloneBytes(items[n-1].key), 0), want, collect)
	}
	for i := range items {
		if items[i].val == nil {
			continue
		}
		if !fn(KV{Key: items[i].key, Value: items[i].val}) {
			break
		}
	}
	return nil
}

// scanHook is a test seam: when set, it runs in every Scan between the
// index walk and the row step, on the scanning thread's goroutine.
var scanHook func(t *Thread)

// ScanKeys is the first half of a scan on its own: the key index walk — no
// HSIT, SVC, PWB or SSD access — visiting up to count keys >= start in key
// order (count <= 0: to the end) until fn returns false. The shard router
// merges several stores' walks before it reads any row. key is the index's
// own copy: fn may keep it, and must not write to it.
func (t *Thread) ScanKeys(start []byte, count int, fn func(key []byte) bool) error {
	if t.s.closed.Load() {
		return ErrClosed
	}
	t.part.Enter()
	defer t.part.Exit()
	t.walk(start, count, func(key []byte, _ uint64) bool { return fn(key) })
	return nil
}

// walk is a scan's walk of the key index: one scan, as core.ops counts
// them.
func (t *Thread) walk(start []byte, count int, fn func(key []byte, idx uint64) bool) {
	t.s.stats.scans.Add(1)
	t.s.index.Scan(t.Clk, start, count, fn)
}

// ReadRows is the second half of a scan on its own: it resolves keys — a
// key-ordered selection of what ScanKeys returned, here or on a store that
// holds the same keys — as a scan resolves its rows (see readRows), each
// row's step starting with the key's lookup, and appends one value per key
// to vals (nil: the key is gone since the walk), returning the extended
// slice. The lookups are a scan's, not point reads: they leave no mark in
// the read-recency filter.
func (t *Thread) ReadRows(keys [][]byte, vals [][]byte) ([][]byte, error) {
	s := t.s
	if s.closed.Load() {
		return vals, ErrClosed
	}
	t.part.Enter()
	defer t.part.Exit()
	t0 := t.Clk.Now()
	defer func() { s.latScan.Record(t.Clk.Now() - t0) }()

	items := t.itemsFor(keys)
	t.readRows(items, true)
	for i := range items {
		vals = append(vals, items[i].val)
	}
	return vals, nil
}

// itemsFor returns the thread's item slab holding one unresolved item per
// key.
func (t *Thread) itemsFor(keys [][]byte) []scanItem {
	if cap(t.items) < len(keys) {
		t.items = make([]scanItem, len(keys))
	}
	items := t.items[:len(keys)]
	for i, k := range keys {
		items[i] = scanItem{key: k}
	}
	return items
}

// readRows resolves a scan's rows through one overlap frame (async.go):
// each row's NVM round trips — the key's lookup when the row does not come
// with its idx, the HSIT entry, the PWB read — are issued asyncIssueNS
// after the previous row's and overlap with them, so fifty resident rows
// cost about 50 x 120 ns plus one row, not fifty rows. Values resident
// only in Value Storage are fetched as one asynchronous batch of merged
// extents, issued when the last such row has resolved (see readVSBatch:
// the scan waits about one SSD read latency for all of them, not one per
// extent); those the read-recency filter has seen before are admitted to
// the SVC, chained together so that an eviction rewrites the range into
// one chunk (§4.4 scan acceleration).
func (t *Thread) readRows(items []scanItem, lookup bool) {
	f := t.fork()
	for i := range items {
		f.read(&items[i], lookup, false)
	}
	f.readBatch(true)
	f.join()
}

// getOnce is the slow-path fallback for values that moved mid-scan: the
// value behind idx, or nil when there is none.
func (t *Thread) getOnce(idx uint64, key []byte) []byte {
	for attempt := 0; attempt < 1000; attempt++ {
		if v, _, retry := t.resolve(idx, key, false); !retry {
			return v
		}
	}
	return nil
}

// scanItem tracks one key through scan resolution.
type scanItem struct {
	key []byte
	idx uint64
	val []byte
	dst []byte       // non-nil: the value is appended here (an async get's handle buffer)
	p   hsit.Pointer // set when pending a Value Storage read
	ver uint64       // publish version observed before p was loaded
}

// copyOut returns v copied into the item's dst, or into a fresh slice
// when it has none; either way non-nil, as a present empty value must be.
func (it *scanItem) copyOut(v []byte) []byte {
	if it.dst != nil {
		return append(it.dst, v...)
	}
	return cloneBytes(v)
}

// mergeGap is the maximum gap (bytes) between two records on the same
// device that still coalesces them into one read IO.
const mergeGap = 4096

// located is one pending record's place on its device.
type located struct {
	it   *scanItem
	dev  int
	off  uint64 // device-local record offset
	size int    // record bytes, header included
}

// readVSBatch fetches the pending items' records as one asynchronous
// batch of merged extents: records adjacent on the same device (within
// mergeGap bytes) coalesce into one IO — this is why the SVC's sorted
// rewrite reduces scan IO — and all extents are in flight together (see
// readVS for the timing). scan selects what is specific to a range scan:
// a row is admitted to the SVC on its second touch only — the first sets
// its bit in the read-recency filter, so a one-pass scan does not flush
// the point reads' working set — and the admitted rows are chained for
// the eviction-time rewrite (§4.4). MultiGet and the async window share
// the merged-read machinery, but theirs are point reads: every one is
// admitted (their bits were set at lookup), and their keys are not a
// key-ordered range, so chaining them would invite pointless rewrites.
func (t *Thread) readVSBatch(pending []*scanItem, scan bool) {
	if len(pending) == 0 {
		return
	}
	s := t.s

	locs := t.locs[:0]
	for _, it := range pending {
		dev, local := valuestore.SplitOff(it.p.Off)
		locs = append(locs, located{it: it, dev: dev, off: local, size: record.HeaderSize + it.p.Len})
	}
	slices.SortFunc(locs, func(a, b located) int {
		if c := cmp.Compare(a.dev, b.dev); c != 0 {
			return c
		}
		return cmp.Compare(a.off, b.off)
	})
	t.locs = locs

	// One request per extent, in locs order: an extent's members are the
	// run of locs on its device that start inside it. Every extent is read
	// into the thread's scratch and every row copied out of it, so a batch
	// allocates its values and nothing else.
	total := 0
	for i := 0; i < len(locs); {
		end, next := extent(locs, i)
		total += int(end - locs[i].off)
		i = next
	}
	if cap(t.extents) < total {
		t.extents = make([]byte, total)
	}
	reqs, buf := t.reqs[:0], t.extents[:total]
	for i := 0; i < len(locs); {
		l := locs[i]
		end, next := extent(locs, i)
		n := int(end - l.off)
		reqs = append(reqs, ssd.Request{Op: ssd.OpRead, Offset: int64(l.off), Data: buf[:n:n], UserData: uint64(l.dev)})
		buf, i = buf[n:], next
	}
	t.reqs = reqs
	t.readVS(reqs, len(locs))

	i := 0
	for _, r := range reqs {
		end := uint64(r.Offset) + uint64(len(r.Data))
		for ; i < len(locs) && locs[i].dev == int(r.UserData) && locs[i].off < end; i++ {
			it := locs[i].it
			v, err := record.Coupled(r.Data[locs[i].off-uint64(r.Offset):], it.idx, it.p.Len)
			if err != nil {
				// Moved mid-scan. The batched pointer is stale now: clearing
				// it excludes the item from SVC admission and marks it for
				// the individual resolve below.
				it.p = hsit.Pointer{}
				continue
			}
			it.val = it.copyOut(v)
		}
	}
	// The fallback reads reuse the request scratch, so they run only now
	// that every extent is decoded.
	for _, it := range pending {
		if it.p.IsNil() {
			it.val = t.getOnce(it.idx, it.key)
		}
	}

	// Admit the batch to the SVC and chain it in key order (§4.4). A
	// range served by one merged extent is already contiguous on the
	// SSD — chaining it would only invite a pointless rewrite later.
	if s.cache != nil {
		chain := scan && !s.opt.DisableScanSort && len(reqs) > 1
		var handles []uint64 // the cache keeps a chain's slice: no scratch
		var deferred int64
		for _, it := range pending {
			if it.val == nil || it.p.IsNil() {
				continue
			}
			if scan && !s.pop.mark(it.idx) {
				deferred++
				continue
			}
			if h, ok := s.admitToSVC(t.Clk, it.idx, it.ver, it.val); ok && chain {
				handles = append(handles, h)
			}
		}
		s.stats.scanDeferred.Add(deferred)
		s.cache.LinkChain(handles)
	}
}

// extent returns the end of the extent that starts at locs[i] and the
// index of the first record past its members: the run of locs on its
// device within mergeGap of the bytes before them.
func extent(locs []located, i int) (end uint64, next int) {
	l := locs[i]
	end = l.off + uint64(l.size)
	for i++; i < len(locs) && locs[i].dev == l.dev && locs[i].off <= end+mergeGap; i++ {
		end = max(end, locs[i].off+uint64(locs[i].size))
	}
	return end, i
}

// readVS issues Value Storage reads — reqs grouped by device, each
// tagged with its device index in UserData — as one asynchronous batch
// through the batching scheme chosen at Open: every device's set starts
// at the thread's current time, so devices overlap as the requests
// within one set do, and the clock advances once, to the latest
// completion. A set larger than the queue depth takes one submission
// per depth requests, back to back (see tcq). A lone Get is the
// one-request case. records is how many records the requests hold.
func (t *Thread) readVS(reqs []ssd.Request, records int) {
	t.s.stats.vsReads.Add(int64(len(reqs)))
	t.s.stats.vsRecords.Add(int64(records))
	at, done := t.Clk.Now(), t.Clk.Now()
	for len(reqs) > 0 {
		n := 1
		for n < len(reqs) && reqs[n].UserData == reqs[0].UserData {
			n++
		}
		done = max(done, t.s.readers[reqs[0].UserData].Read(at, reqs[:n]...))
		reqs = reqs[n:]
	}
	t.Clk.AdvanceTo(done)
}
