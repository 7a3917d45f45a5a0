package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/hsit"
)

func TestCrashRecoveryPreservesAllData(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	const n = 3000 // forces a mix of PWB-resident and VS-resident values
	for i := 0; i < n; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Crash()
	rep, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LiveKeys != n {
		t.Fatalf("recovered %d keys, want %d (lost %d)", rep.LiveKeys, n, rep.LostKeys)
	}
	if rep.LostKeys != 0 {
		t.Fatalf("lost %d committed keys", rep.LostKeys)
	}
	if rep.VirtualNS <= 0 {
		t.Fatal("recovery charged no virtual time")
	}
	for i := 0; i < n; i++ {
		got, err := th.Get(key(i))
		if err != nil || !bytes.Equal(got, value(i)) {
			t.Fatalf("key %d after recovery: %q, %v", i, got, err)
		}
	}
}

func TestCrashRecoveryLatestVersionWins(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	for i := 0; i < 500; i++ {
		th.Put(key(i%50), value(i))
	}
	want := map[int][]byte{}
	for i := 450; i < 500; i++ {
		want[i%50] = value(i)
	}
	s.Crash()
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		got, err := th.Get(key(k))
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("key %d: %q, %v", k, got, err)
		}
	}
}

func TestCrashRecoveryAfterDeletes(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	for i := 0; i < 200; i++ {
		th.Put(key(i), value(i))
	}
	for i := 0; i < 200; i += 2 {
		th.Delete(key(i))
	}
	s.Crash()
	rep, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LiveKeys != 100 {
		t.Fatalf("live = %d, want 100", rep.LiveKeys)
	}
	for i := 0; i < 200; i++ {
		got, err := th.Get(key(i))
		if i%2 == 0 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted key %d resurrected: %q, %v", i, got, err)
			}
		} else if err != nil || !bytes.Equal(got, value(i)) {
			t.Fatalf("surviving key %d: %q, %v", i, got, err)
		}
	}
}

func TestStoreUsableAfterRecovery(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	for i := 0; i < 300; i++ {
		th.Put(key(i), value(i))
	}
	s.Crash()
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	// Full read/write/scan cycle must work after recovery, including
	// enough writes to force reclamation into the recovered Value
	// Storage state.
	for i := 300; i < 2500; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatalf("post-recovery put %d: %v", i, err)
		}
	}
	for i := 0; i < 2500; i += 17 {
		got, err := th.Get(key(i))
		if err != nil || !bytes.Equal(got, value(i)) {
			t.Fatalf("post-recovery get %d: %q, %v", i, got, err)
		}
	}
	cnt := 0
	th.Scan(key(100), 50, func(kv KV) bool { cnt++; return true })
	if cnt != 50 {
		t.Fatalf("post-recovery scan visited %d", cnt)
	}
}

func TestDoubleCrashRecovery(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	for i := 0; i < 1000; i++ {
		th.Put(key(i), value(i))
	}
	s.Crash()
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := 1000; i < 1500; i++ {
		th.Put(key(i), value(i))
	}
	s.Crash()
	rep, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LiveKeys != 1500 {
		t.Fatalf("second recovery: %d live", rep.LiveKeys)
	}
	for i := 0; i < 1500; i += 11 {
		got, err := th.Get(key(i))
		if err != nil || !bytes.Equal(got, value(i)) {
			t.Fatalf("key %d after double crash: %q, %v", i, got, err)
		}
	}
}

// TestCrashCyclesRegisterNoParticipant: the pass threads every Recover
// builds anew never enter an epoch and so register no participant — the
// manager never forgets one, and every epoch advance scans them all.
func TestCrashCyclesRegisterNoParticipant(t *testing.T) {
	s := small(t, nil)
	parts := func() int { return reflect.ValueOf(s.em).Elem().FieldByName("parts").Len() }
	before := parts()
	for cycle := 0; cycle < 3; cycle++ {
		if err := s.Thread(0).Put(key(cycle), value(cycle)); err != nil {
			t.Fatal(err)
		}
		s.Crash()
		if _, err := s.Recover(); err != nil {
			t.Fatal(err)
		}
	}
	if got := parts(); got != before {
		t.Fatalf("three crash cycles took the epoch participants from %d to %d", before, got)
	}
}

// An unflushed HSIT update must roll back to the previous durable value
// — the §5.4 dirty-bit protocol end to end. We simulate a writer that
// crashed between its pointer CAS and its flush by writing the dirty
// word directly.
func TestTornPointerUpdateRollsBack(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	th.Put(key(1), []byte("durable-v1"))
	idx, ok := s.index.Lookup(nil, []byte(string(key(1))))
	if !ok {
		t.Fatal("index lookup failed")
	}
	// Fabricate an unpersisted dirty update: valid PWB record, pointer
	// CASed but never flushed.
	off, _, err := s.pwbs[0].Append(nil, idx, []byte("torn-v2000"))
	if err != nil {
		t.Fatal(err)
	}
	p := hsit.Pointer{Media: hsit.PWB, Len: 10, Off: off}
	s.nvmDev.StoreUint64(nil, int(idx)*hsit.EntrySize, hsit.Encode(p)|uint64(1)<<61)

	s.Crash()
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := th.Get(key(1))
	if err != nil || string(got) != "durable-v1" {
		t.Fatalf("torn update did not roll back: %q, %v", got, err)
	}
}

// A forward pointer outside its medium, persisted before a crash, loses
// its key in recovery; it must not panic it.
func TestRecoverLosesPointerOutsideItsMedium(t *testing.T) {
	for _, c := range outsideMedium {
		t.Run(c.name, func(t *testing.T) {
			s := small(t, nil)
			th := s.Thread(0)
			for i := 0; i < 3; i++ {
				th.Put(key(i), value(i))
			}
			idx, _ := s.index.Lookup(nil, key(1))
			s.table.Publish(nil, idx, c.ptr(t, s))
			s.Crash()
			rep, err := s.Recover()
			if err != nil || rep.LostKeys != 1 || rep.LiveKeys != 2 {
				t.Fatalf("Recover = %+v, %v; want key 1 lost and the other two live", rep, err)
			}
			if _, err := th.Get(key(1)); err != ErrNotFound {
				t.Fatalf("Get of the lost key: %v", err)
			}
		})
	}
}

func TestRecoverOnRunningStoreFails(t *testing.T) {
	s := small(t, nil)
	if _, err := s.Recover(); err == nil {
		t.Fatal("Recover on running store succeeded")
	}
}

func TestRecoveryReportsMediaBreakdown(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	const n = 2500
	for i := 0; i < n; i++ {
		th.Put(key(i), value(i))
	}
	s.Crash()
	rep, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PWBValuesDrained+rep.VSValuesRecovered != rep.LiveKeys {
		t.Fatalf("breakdown inconsistent: %+v", rep)
	}
	if rep.PWBValuesDrained == 0 {
		t.Log("note: no values were PWB-resident at crash")
	}
	if rep.VSValuesRecovered == 0 {
		t.Fatalf("expected VS-resident values with %d writes: %+v", n, rep)
	}
}

func TestRecoveryWithManyThreads(t *testing.T) {
	s := small(t, func(o *Options) { o.NumThreads = 4 })
	var keys [][]byte
	for w := 0; w < 4; w++ {
		th := s.Thread(w)
		for i := 0; i < 400; i++ {
			k := []byte(fmt.Sprintf("w%d-%05d", w, i))
			if err := th.Put(k, value(i)); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, k)
		}
	}
	s.Crash()
	rep, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LiveKeys != len(keys) {
		t.Fatalf("recovered %d of %d", rep.LiveKeys, len(keys))
	}
	th := s.Thread(0)
	for _, k := range keys {
		if _, err := th.Get(k); err != nil {
			t.Fatalf("key %s lost: %v", k, err)
		}
	}
}
