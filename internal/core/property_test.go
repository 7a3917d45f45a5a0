package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/model"
)

// coreLevel is s as the model harness drives it, client c on thread c.
// At the end Len must count the rows of a full scan, which the audit has
// checked against the model.
func coreLevel(s *Store) model.Level[KV, *Handle] {
	return model.Level[KV, *Handle]{Name: "core", NotFound: ErrNotFound, Client: func(c int) model.Ops[KV, *Handle] {
		th := s.Thread(c)
		return model.Ops[KV, *Handle]{Put: th.Put, Get: th.Get, Del: th.Delete, Scan: th.Scan,
			PutBatch: th.PutBatch, MultiGet: th.MultiGet, PutAsync: th.PutAsync, GetAsync: th.GetAsync, DelAsync: th.DeleteAsync}
	}, End: func() error {
		n := 0
		if err := s.Thread(0).Scan(nil, 0, func(KV) bool { n++; return true }); err != nil || n != s.Len() {
			return fmt.Errorf("Len %d, a full scan returned %d rows (%v)", s.Len(), n, err)
		}
		return nil
	}}
}

// The model harness with crashes: whole-store crashes between ops, in the
// middle of an async burst, and in the middle of a PutBatch. A handle
// that resolves ErrClosed was never applied; PutBatch is prefix-durable,
// so a crash right after entry c commits exactly entries 0..c.
func TestStoreMatchesModelWithCrashes(t *testing.T) {
	model.Run(t, model.Config{Keys: 150, Steps: 1200}, func(t *testing.T) model.Level[KV, *Handle] {
		s := small(t, func(o *Options) { o.NumThreads, o.NumSSDs, o.HSITCapacity, o.SVCBytes = 1, 1, 1<<12, 32<<10 })
		lv := coreLevel(s)
		lv.Fates = map[error]model.Outcome{ErrClosed: model.Failed}
		lv.Crash = func(uint64) { s.Crash() }
		lv.BatchStep = func(hook func(int)) { s.batchStepHook = hook }
		lv.Recover = func() error { _, err := s.Recover(); return err }
		lv.Fault = func(uint64) error { s.Crash(); return lv.Recover() }
		return lv
	})
}

// The model harness with 4 clients, each on its own thread, on devices
// small enough that PWB reclamation and Value Storage GC run beside them;
// the store then passes the invariant checker.
func TestConcurrentOwnershipProperty(t *testing.T) {
	model.Run(t, model.Config{Clients: 4, Keys: 800, Steps: 1500}, func(t *testing.T) model.Level[KV, *Handle] {
		s := small(t, func(o *Options) { o.NumThreads, o.SSDBytes, o.GCFreeFraction = 4, 1<<20, 0.9 })
		lv := coreLevel(s)
		count := lv.End
		lv.End = func() error {
			err := count()
			settle(s)
			if rep := s.CheckInvariants(); !rep.OK() {
				return fmt.Errorf("invariants violated: %v", rep.Problems)
			}
			return err
		}
		return lv
	})
}

// Deletes of missing keys and empty-value writes behave sanely.
func TestEdgeValues(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	if err := th.Put([]byte("empty"), nil); err != nil {
		t.Fatalf("nil value rejected: %v", err)
	}
	got, err := th.Get([]byte("empty"))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty value round trip: %q, %v", got, err)
	}
	if err := th.Put([]byte("k"), make([]byte, 0)); err != nil {
		t.Fatal(err)
	}
	if err := th.Delete([]byte("never-existed")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
	// Large (but legal) value.
	big := make([]byte, 8192)
	for i := range big {
		big[i] = byte(i)
	}
	if err := th.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	got, err = th.Get([]byte("big"))
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("big value round trip failed: len=%d err=%v", len(got), err)
	}
}
