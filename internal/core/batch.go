package core

import (
	"errors"
	"fmt"

	"repro/internal/hsit"
)

// Batch operations: PutBatch and MultiGet amortize the fixed per-op toll
// of the public API — epoch enter/exit, publish-pending bookkeeping, and
// (for reads) Value Storage IO — across many keys. The device-level
// batching of §5.3 (thread combining) already merges concurrent IO;
// these entry points remove the per-key software overhead above it.

// PutBatch applies kvs in order, entering the epoch once and clearing
// the PWB publish-pending window once per pass instead of once per key.
//
// Durability contract: PutBatch is NOT atomic. Entries are appended and
// published in slice order, and each entry's HSIT publish is persisted
// before the next entry is written, so a crash (or concurrent Close)
// leaves a durable PREFIX of the batch: if entry i survived recovery,
// entries 0..i-1 did too. On error the prefix applied so far remains;
// a nil return means every entry is durable. Duplicate keys are applied
// in order (the later entry wins), never coalesced — skipping an earlier
// duplicate would break the prefix guarantee.
func (t *Thread) PutBatch(kvs []KV) error { return t.PutBatchTS(kvs, nil) }

// PutBatchTS is PutBatch with one stamp per entry (nil tss: all
// unstamped): the routed replica fan-out's write path, keeping the
// one-epoch-enter/one-publish-window amortization while each entry
// individually obeys last-writer-wins (see putStep for the stamp rule).
func (t *Thread) PutBatchTS(kvs []KV, tss []uint64) error {
	s := t.s
	if s.closed.Load() {
		return ErrClosed
	}
	if len(kvs) == 0 {
		return nil
	}
	if tss != nil && len(tss) != len(kvs) {
		return errors.New("prism: PutBatchTS stamp count mismatch")
	}
	var total int64
	for i := range kvs {
		if len(kvs[i].Value) > hsit.MaxValueLen {
			return fmt.Errorf("batch entry %d: %w", i, errValueTooLarge(len(kvs[i].Value)))
		}
		total += int64(len(kvs[i].Value))
	}
	s.stats.puts.Add(int64(len(kvs)))
	s.stats.batchPuts.Add(1)
	s.stats.userBytesWritten.Add(total)
	s.batchSizePut.Record(int64(len(kvs)))
	t0 := t.Clk.Now()
	defer func() { s.latPutBatch.Record(t.Clk.Now() - t0) }()

	// A pass that stalls on a full PWB mid-batch has closed its publish
	// window (deferred Published), so reclamation can make progress before
	// the next pass resumes with the unapplied tail.
	return t.untilApplied(func() error {
		// execMu: the PWB ring and its publish-pending window are shared
		// with the async admission loop (see Thread.async).
		t.async.execMu.Lock()
		defer t.async.execMu.Unlock()
		n, err := t.putBatchEpoch(kvs, tss)
		kvs = kvs[n:]
		if tss != nil {
			tss = tss[n:]
		}
		return err
	})
}

// putBatchEpoch applies as many entries as one epoch-scoped pass can,
// returning how many were applied. The PWB publish-pending floor is set
// by the pass's first append and lifted once on the way out (every HSIT
// publish in between has already persisted, so the single clear is safe
// for the whole window).
func (t *Thread) putBatchEpoch(kvs []KV, tss []uint64) (applied int, err error) {
	s := t.s
	t.part.Enter()
	defer t.part.Exit()
	// One Published per pass — including the error paths, where records
	// already published this pass must become visible to the reclaimer.
	defer t.buf.Published()
	for i := range kvs {
		if s.closed.Load() {
			return i, ErrClosed
		}
		var ts uint64
		if tss != nil {
			ts = tss[i]
		}
		if err := t.putStep(kvs[i].Key, kvs[i].Value, ts, false); err != nil {
			return i, err
		}
		if h := s.batchStepHook; h != nil {
			h(i)
		}
	}
	return len(kvs), nil
}

// MultiGet resolves keys in one epoch-scoped pass and returns one value
// per key, with nil marking a missing key (present-but-empty values are
// non-nil). The keys resolve through one overlap frame (async.go) — each
// key's index lookup and NVM round trips issued asyncIssueNS after the
// previous key's, overlapping with them — so MultiGet of n keys advances
// the clock by what the same n GetAsyncs in one admission window do.
// Values resident only in Value Storage are read as merged, sorted
// extents — one IO per extent instead of one per key — and the extents go
// to the devices together, as one asynchronous batch through the §5.3
// batching scheme, issued when the last such key has resolved: the call
// waits about one SSD read latency for all of them (see readVSBatch).
func (t *Thread) MultiGet(keys [][]byte) ([][]byte, error) {
	return t.MultiGetInto(keys, make([][]byte, 0, len(keys)))
}

// MultiGetInto is MultiGet appending into vals (one entry per key, nil =
// missing), returning the extended slice. Callers serving hot paths keep
// a scratch slice and pass vals[:0] to avoid the per-batch allocation.
func (t *Thread) MultiGetInto(keys [][]byte, vals [][]byte) ([][]byte, error) {
	s := t.s
	if s.closed.Load() {
		return vals, ErrClosed
	}
	base := len(vals)
	for range keys {
		vals = append(vals, nil)
	}
	if len(keys) == 0 {
		return vals, nil
	}
	s.stats.gets.Add(int64(len(keys)))
	s.stats.batchGets.Add(1)
	s.batchSizeGet.Record(int64(len(keys)))
	t0 := t.Clk.Now()
	defer func() { s.latMultiGet.Record(t.Clk.Now() - t0) }()
	t.part.Enter()
	defer t.part.Exit()

	items := t.itemsFor(keys)

	// One frame step per key — lookup, then the fast paths (SVC, then PWB)
	// — with the Value Storage residents left to one merged batch read:
	// what the same keys cost as GetAsyncs in one admission window. A key
	// missing from the index, or deleted between lookup and load, keeps a
	// nil val.
	f := t.fork()
	for i := range items {
		f.read(&items[i], true, true)
	}
	f.readBatch(false)
	f.join()

	for i := range items {
		vals[base+i] = items[i].val
	}
	return vals, nil
}
