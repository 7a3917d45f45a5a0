package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// Last-writer-wins: an older stamp never overwrites a newer one, in
// either direction (put-then-stale-put, delete-then-stale-put).
func TestPutTSLastWriterWins(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	if err := th.PutTS(key(1), []byte("new"), 10); err != nil {
		t.Fatal(err)
	}
	// A stale write is silently superseded, not an error.
	if err := th.PutTS(key(1), []byte("old"), 5); err != nil {
		t.Fatal(err)
	}
	if v, err := th.Get(key(1)); err != nil || !bytes.Equal(v, []byte("new")) {
		t.Fatalf("Get = %q, %v; want \"new\"", v, err)
	}
	// Equal stamp is also superseded (idempotent re-pull).
	if err := th.PutTS(key(1), []byte("dup"), 10); err != nil {
		t.Fatal(err)
	}
	if v, _ := th.Get(key(1)); !bytes.Equal(v, []byte("new")) {
		t.Fatalf("equal-stamp rewrite applied: %q", v)
	}
	if ts, tomb, ok := s.ReplicaNewest(key(1)); !ok || tomb || ts != 10 {
		t.Fatalf("ReplicaNewest = %d,%v,%v; want 10,false,true", ts, tomb, ok)
	}
}

func TestDeleteTSTombstoneBlocksStaleWrite(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	if err := th.PutTS(key(2), value(2), 3); err != nil {
		t.Fatal(err)
	}
	found, err := th.DeleteTS(key(2), 7)
	if err != nil || !found {
		t.Fatalf("DeleteTS = %v,%v; want true,nil", found, err)
	}
	if _, err := th.Get(key(2)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v", err)
	}
	// A write stamped before the tombstone must not resurrect the key.
	if err := th.PutTS(key(2), value(2), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Get(key(2)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stale write resurrected deleted key: %v", err)
	}
	if ts, tomb, ok := s.ReplicaNewest(key(2)); !ok || !tomb || ts != 7 {
		t.Fatalf("ReplicaNewest = %d,%v,%v; want 7,true,true", ts, tomb, ok)
	}
	// A tombstone is recorded even for a key never stored here (the
	// divergent-replica propagation case).
	found, err = th.DeleteTS(key(3), 9)
	if err != nil || found {
		t.Fatalf("DeleteTS(missing) = %v,%v; want false,nil", found, err)
	}
	if ts, tomb, ok := s.ReplicaNewest(key(3)); !ok || !tomb || ts != 9 {
		t.Fatalf("missing-key tombstone not recorded: %d,%v,%v", ts, tomb, ok)
	}
	if n := s.TombstoneCount(); n != 2 {
		t.Fatalf("TombstoneCount = %d, want 2", n)
	}
	if n := s.DiscardTombstones(8); n != 1 {
		t.Fatalf("DiscardTombstones(8) = %d, want 1 (only ts=7 is older)", n)
	}
	if n := s.TombstoneCount(); n != 1 {
		t.Fatalf("TombstoneCount after discard = %d, want 1", n)
	}
}

// Regression: a stamped delete records its tombstone before it drops the
// key, so a reader that finds the key gone finds its stamp superseded.
// It used to drop the key first, and a concurrent MigrateRange's pull read
// a live stamp with no value behind it and aborted. The test holds the
// stamp map's read lock, which parks the delete on its tombstone write,
// and looks at the key there.
func TestDeleteRecordsTombstoneFirst(t *testing.T) {
	s := small(t, nil)
	if err := s.Thread(0).PutTS(key(1), value(1), 1); err != nil {
		t.Fatal(err)
	}
	r := s.repl
	r.mu.RLock()
	done := make(chan error)
	go func() { _, err := s.Thread(1).DeleteTS(key(1), 2); done <- err }()
	for r.mu.TryRLock() { // fails once the delete waits to write
		r.mu.RUnlock()
		runtime.Gosched()
	}
	_, err := s.Thread(0).Get(key(1))
	live, tomb := r.live[string(key(1))], r.tomb[string(key(1))]
	r.mu.RUnlock()
	if del := <-done; del != nil || errors.Is(err, ErrNotFound) && tomb == 0 {
		t.Fatalf("delete: %v; the key read %v while its stamps said live %d, tombstone %d", del, err, live, tomb)
	}
}

func TestPutBatchTSAndEntries(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	kvs := []KV{
		{Key: key(10), Value: value(10)},
		{Key: key(11), Value: value(11)},
		{Key: key(12), Value: value(12)},
	}
	if err := th.PutBatchTS(kvs, []uint64{21, 22, 23}); err != nil {
		t.Fatal(err)
	}
	// A second batch where only one entry is newer.
	kvs2 := []KV{
		{Key: key(10), Value: []byte("stale")},
		{Key: key(11), Value: []byte("fresh")},
	}
	if err := th.PutBatchTS(kvs2, []uint64{20, 30}); err != nil {
		t.Fatal(err)
	}
	if v, _ := th.Get(key(10)); !bytes.Equal(v, value(10)) {
		t.Fatalf("stale batch entry applied: %q", v)
	}
	if v, _ := th.Get(key(11)); !bytes.Equal(v, []byte("fresh")) {
		t.Fatalf("fresh batch entry missing: %q", v)
	}
	got := map[string]uint64{}
	s.ReplicaEntries(func(k []byte, ts uint64, tomb bool) bool {
		if tomb {
			t.Fatalf("unexpected tombstone for %q", k)
		}
		got[string(k)] = ts
		return true
	})
	want := map[string]uint64{string(key(10)): 21, string(key(11)): 30, string(key(12)): 23}
	for k, ts := range want {
		if got[k] != ts {
			t.Fatalf("entry %q stamp = %d, want %d (all: %v)", k, got[k], ts, got)
		}
	}
}

// Async TS variants go through the same gate.
func TestAsyncTSVariants(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	if err := th.PutTSAsync(key(20), []byte("v1"), 100).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := th.PutTSAsync(key(20), []byte("v0"), 99).Wait(); err != nil {
		t.Fatal(err) // superseded, still a successful completion
	}
	if v, err := th.GetAsync(key(20)).Value(); err != nil || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("GetAsync = %q, %v", v, err)
	}
	if err := th.DeleteTSAsync(key(20), 101).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := th.DeleteTSAsync(key(20), 50).Wait(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("superseded async delete = %v, want ErrNotFound", err)
	}
	if _, err := th.GetAsync(key(20)).Value(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("key survived async delete: %v", err)
	}
}

// The stamp map survives Crash/Recover with the index, minus entries
// whose value was lost (unacknowledged at the crash): those are
// forgotten so anti-entropy can re-pull them.
func TestReplStateSurvivesCrash(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	for i := 0; i < 50; i++ {
		if err := th.PutTS(key(i), value(i), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := th.DeleteTS(key(0), 100); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	th = s.Thread(0)
	live, tombs := 0, 0
	s.ReplicaEntries(func(k []byte, ts uint64, tomb bool) bool {
		if tomb {
			tombs++
		} else {
			live++
		}
		return true
	})
	if tombs != 1 {
		t.Fatalf("tombstones after recovery = %d, want 1", tombs)
	}
	// Every surviving stamp must be backed by a readable value.
	bad := 0
	s.ReplicaEntries(func(k []byte, ts uint64, tomb bool) bool {
		if !tomb {
			if _, err := th.Get(k); err != nil {
				bad++
			}
		}
		return true
	})
	if bad != 0 {
		t.Fatalf("%d live stamps have no readable value after recovery", bad)
	}
}

// OnDone runs exactly once — inline when the handle already completed,
// from the completer otherwise — and proxy handles resolve through it.
func TestHandleOnDoneAndProxy(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	h := th.PutAsync(key(1), value(1))
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	ran := 0
	h.OnDone(func(h *Handle) { ran++ })
	if ran != 1 {
		t.Fatalf("OnDone on completed handle ran %d times, want 1 (inline)", ran)
	}

	ph, resolve := NewProxyHandle()
	got := make(chan error, 1)
	ph.OnDone(func(h *Handle) { got <- h.Wait() })
	resolve([]byte("x"), nil, 42)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if v, err := ph.Value(); err != nil || !bytes.Equal(v, []byte("x")) {
		t.Fatalf("proxy Value = %q, %v", v, err)
	}
	if at := ph.CompletedAt(); at != 42 {
		t.Fatalf("proxy CompletedAt = %d, want 42", at)
	}
}

// The stamp rule every write path shares (documented on putStep): stamp
// 0 is the plain operation and a nonzero stamp applies when it is the
// newest — through the sync, batch and async entry points alike.
func TestStampRule(t *testing.T) {
	k, v := key(1), value(1)
	ops := []struct {
		name string
		do   func(th *Thread, ts uint64) error
	}{
		{"PutTS", func(th *Thread, ts uint64) error { return th.PutTS(k, v, ts) }},
		{"PutBatchTS", func(th *Thread, ts uint64) error { return th.PutBatchTS([]KV{{Key: k, Value: v}}, []uint64{ts}) }},
		{"PutTSAsync", func(th *Thread, ts uint64) error { return th.PutTSAsync(k, v, ts).Wait() }},
		{"DeleteTS", func(th *Thread, ts uint64) error {
			found, err := th.DeleteTS(k, ts)
			if err == nil && !found {
				t.Errorf("DeleteTS(ts=%d) did not find the key just written", ts)
			}
			return err
		}},
		{"DeleteTSAsync", func(th *Thread, ts uint64) error { return th.DeleteTSAsync(k, ts).Wait() }},
	}
	s := small(t, nil)
	th := s.Thread(0)
	for _, op := range ops {
		for ts := uint64(0); ts < 2; ts++ {
			// Every op finds the key present: the deletes remove it.
			if err := th.Put(k, v); err != nil {
				t.Fatal(err)
			}
			// Nonzero stamps grow with every put so each is the newest.
			if err := op.do(th, ts*uint64(1000+s.Stats().Puts)); err != nil {
				t.Errorf("%s(ts=%d) = %v, want nil", op.name, ts, err)
			}
		}
	}
}
