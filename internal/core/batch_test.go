package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/hsit"
)

func TestPutBatchBasics(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)

	// Empty batch: a no-op, not an error, and not a counted batch.
	if err := th.PutBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if got := s.Stats().BatchPuts; got != 0 {
		t.Fatalf("empty batch counted: %d", got)
	}

	var kvs []KV
	for i := 0; i < 50; i++ {
		kvs = append(kvs, KV{Key: key(i), Value: value(i)})
	}
	if err := th.PutBatch(kvs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		got, err := th.Get(key(i))
		if err != nil || !bytes.Equal(got, value(i)) {
			t.Fatalf("key %d after batch: %q, %v", i, got, err)
		}
	}
	st := s.Stats()
	if st.BatchPuts != 1 || st.Puts != 50 {
		t.Fatalf("BatchPuts=%d Puts=%d, want 1/50", st.BatchPuts, st.Puts)
	}
}

// Duplicate keys in one batch apply in order — the last occurrence wins,
// exactly as the same sequence of single Puts would.
func TestPutBatchDuplicateKeysLastWins(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	err := th.PutBatch([]KV{
		{Key: []byte("dup"), Value: []byte("first")},
		{Key: []byte("other"), Value: []byte("x")},
		{Key: []byte("dup"), Value: []byte("second")},
		{Key: []byte("dup"), Value: []byte("third")},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := th.Get([]byte("dup"))
	if err != nil || string(got) != "third" {
		t.Fatalf("dup = %q, %v", got, err)
	}
}

// An oversized value is rejected up front, before any entry applies:
// validation runs over the whole batch first, so a bad entry cannot
// leave a partial prefix behind.
func TestPutBatchRejectsOversizedValueUpFront(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	err := th.PutBatch([]KV{
		{Key: []byte("ok0"), Value: []byte("v")},
		{Key: []byte("big"), Value: make([]byte, hsit.MaxValueLen+1)},
		{Key: []byte("ok2"), Value: []byte("v")},
	})
	if err == nil || !strings.Contains(err.Error(), "entry 1") {
		t.Fatalf("oversized entry error: %v", err)
	}
	if _, gerr := th.Get([]byte("ok0")); gerr != ErrNotFound {
		t.Fatalf("prefix applied despite up-front validation failure: %v", gerr)
	}
}

func TestMultiGetSemantics(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	if err := th.Put([]byte("a"), []byte("va")); err != nil {
		t.Fatal(err)
	}
	if err := th.Put([]byte("empty"), nil); err != nil {
		t.Fatal(err)
	}
	vals, err := th.MultiGet([][]byte{[]byte("a"), []byte("missing"), []byte("empty"), []byte("a")})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 4 {
		t.Fatalf("len = %d", len(vals))
	}
	if string(vals[0]) != "va" || string(vals[3]) != "va" {
		t.Fatalf("vals = %q", vals)
	}
	// Missing is nil; present-but-empty is non-nil. This is the contract
	// the RESP server's nil-bulk vs empty-bulk replies ride on.
	if vals[1] != nil {
		t.Fatalf("missing key non-nil: %q", vals[1])
	}
	if vals[2] == nil || len(vals[2]) != 0 {
		t.Fatalf("empty value: %#v", vals[2])
	}

	// Empty key set: no batch counted.
	before := s.Stats().BatchGets
	if vals, err := th.MultiGet(nil); err != nil || len(vals) != 0 {
		t.Fatalf("empty MultiGet: %q, %v", vals, err)
	}
	if got := s.Stats().BatchGets; got != before {
		t.Fatalf("empty MultiGet counted: %d -> %d", before, got)
	}

	// MultiGetInto appends after existing entries and reuses capacity.
	scratch := make([][]byte, 0, 8)
	scratch = append(scratch, []byte("sentinel"))
	out, err := th.MultiGetInto([][]byte{[]byte("a")}, scratch)
	if err != nil || len(out) != 2 || string(out[0]) != "sentinel" || string(out[1]) != "va" {
		t.Fatalf("MultiGetInto: %q, %v", out, err)
	}
}

// MultiGet must read through every residence a value can have: fresh in
// the PWB, cached in the SVC, and migrated to Value Storage.
func TestMultiGetAcrossMedia(t *testing.T) {
	s := small(t, func(o *Options) {
		o.PWBBytesPerThread = 4096 // tiny ring: early keys migrate to VS
	})
	th := s.Thread(0)
	// 64 puts through a 4 KiB ring force most early records through
	// reclamation into Value Storage before the reads run.
	const n = 64
	for i := 0; i < n; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(i)
	}
	vals, err := th.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !bytes.Equal(vals[i], value(i)) {
			t.Fatalf("key %d = %.20q, want %.20q", i, vals[i], value(i))
		}
	}
	// Second pass hits whatever the first pass admitted to the SVC.
	vals, err = th.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !bytes.Equal(vals[i], value(i)) {
			t.Fatalf("cached key %d = %.20q", i, vals[i])
		}
	}
}

func TestBatchOpsAfterClose(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	s.Close()
	if err := th.PutBatch([]KV{{Key: []byte("k"), Value: []byte("v")}}); err != ErrClosed {
		t.Fatalf("PutBatch after close: %v", err)
	}
	if _, err := th.MultiGet([][]byte{[]byte("k")}); err != ErrClosed {
		t.Fatalf("MultiGet after close: %v", err)
	}
}

// TestBatchAmortizesEpochEnters is the ISSUE acceptance check in unit
// form: writing N keys through size-32 batches must enter the epoch at
// least 8x less often than N single Puts (it is ~32x absent retries).
func TestBatchAmortizesEpochEnters(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	const n = 128

	e0 := s.Epochs().Enters()
	for i := 0; i < n; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	single := s.Epochs().Enters() - e0

	e1 := s.Epochs().Enters()
	kvs := make([]KV, 0, 32)
	for i := 0; i < n; i += 32 {
		kvs = kvs[:0]
		for j := i; j < i+32 && j < n; j++ {
			kvs = append(kvs, KV{Key: key(j), Value: value(j + 1)})
		}
		if err := th.PutBatch(kvs); err != nil {
			t.Fatal(err)
		}
	}
	batched := s.Epochs().Enters() - e1

	if single < n {
		t.Fatalf("single-put enters = %d, want >= %d", single, n)
	}
	if batched*8 > single {
		t.Fatalf("batched enters = %d vs single %d: less than 8x amortization", batched, single)
	}
	// And the writes themselves landed.
	for i := 0; i < n; i++ {
		got, err := th.Get(key(i))
		if err != nil || !bytes.Equal(got, value(i+1)) {
			t.Fatalf("key %d after batched overwrite: %q, %v", i, got, err)
		}
	}

	// The obs counter mirrors the manager's sum.
	if v, ok := s.Metrics().Value("epoch.enters"); !ok || int64(v) < single+batched {
		t.Fatalf("epoch.enters metric = %v ok=%v, want >= %d", v, ok, single+batched)
	}
	// Batch histograms recorded the batch sizes.
	if m, ok := s.Metrics().Get("core.batch_size", map[string]string{"op": "put"}); !ok || m.Hist == nil || m.Hist.Count != 4 {
		t.Fatalf("core.batch_size{op=put} = %+v ok=%v, want 4 batches", m, ok)
	}
}

// Latency histograms for the batch entry points must populate.
func TestBatchLatencyMetrics(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	if err := th.PutBatch([]KV{{Key: []byte("k"), Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := th.MultiGet([][]byte{[]byte("k")}); err != nil {
		t.Fatal(err)
	}
	for _, lbl := range []string{"put_batch", "multiget"} {
		if m, ok := s.Metrics().Get("core.op_latency", map[string]string{"op": lbl}); !ok || m.Hist == nil || m.Hist.Count == 0 {
			t.Fatalf("core.op_latency{op=%s} = %+v ok=%v", lbl, m, ok)
		}
	}
	if m, ok := s.Metrics().Get("core.batch_ops", map[string]string{"op": "get"}); !ok || m.Value != 1 {
		t.Fatalf("core.batch_ops{op=get} = %+v ok=%v", m, ok)
	}
}

// TestStaleAdmissionRejectedOnRead pins the read-side currency check
// down deterministically. An SVC admission races with a writer like
// this: the admitter reads value v1 from Value Storage, the writer
// supersedes it with v2 (its invalidateOld sees HSIT word 1 == 0 —
// nothing to retract), and only then does the admitter CAS its handle
// in. The admitter's own TOCTOU guard retracts the entry, but between
// the CAS and the retraction the stale handle is resolvable — a reader
// in that window must reject the hit because the entry's admission
// version no longer matches the entry's publish version. Here the
// window is frozen by planting the published-but-stale entry directly.
func TestStaleAdmissionRejectedOnRead(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	if err := th.Put([]byte("k"), []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	idx, ok := s.index.Lookup(nil, []byte("k"))
	if !ok {
		t.Fatal("lookup failed")
	}
	// An odd version token can never equal the entry's resting publish
	// version, so the planted entry is permanently stale.
	staleVer := s.table.Version(idx) + 101
	e := s.cache.Admit(idx, staleVer, []byte("k"), []byte("stale"))
	if !s.table.CasSVC(nil, idx, 0, e.Handle()) {
		t.Fatal("word 1 unexpectedly occupied")
	}
	s.cache.Published(e)

	got, err := th.Get([]byte("k"))
	if err != nil || string(got) != "fresh" {
		t.Fatalf("Get through stale cache entry = %q, %v", got, err)
	}
	// The rejected entry must have been retracted, not just skipped.
	if h := svcHandle(s, idx); h != 0 {
		t.Fatalf("stale handle still published: %d", h)
	}

	// Same via the MultiGet fast path: re-plant and batch-read.
	e = s.cache.Admit(idx, staleVer, []byte("k"), []byte("stale"))
	if !s.table.CasSVC(nil, idx, 0, e.Handle()) {
		t.Fatal("word 1 unexpectedly occupied after retraction")
	}
	s.cache.Published(e)
	vals, err := th.MultiGet([][]byte{[]byte("k")})
	if err != nil || string(vals[0]) != "fresh" {
		t.Fatalf("MultiGet through stale cache entry = %q, %v", vals, err)
	}
	if h := svcHandle(s, idx); h != 0 {
		t.Fatalf("stale handle still published after MultiGet: %d", h)
	}
}
