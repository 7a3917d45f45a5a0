package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/hsit"
	"repro/internal/valuestore"
)

// settle stops all background work so the checker sees a stable store
// (CheckInvariants requires quiescence). Operations are done by the time
// tests call this; Close is idempotent with the test cleanup.
func settle(s *Store) {
	if s.cache != nil {
		s.cache.Sync()
	}
	s.em.Barrier()
	s.Close()
}

func TestCheckerCleanStore(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	const n = 2500 // spans PWB and Value Storage residency
	for i := 0; i < n; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 5 {
		th.Get(key(i)) // populate the SVC
	}
	for i := 0; i < n; i += 9 {
		th.Delete(key(i))
	}
	settle(s)
	rep := s.CheckInvariants()
	if !rep.OK() {
		t.Fatalf("invariant violations on a clean store: %v", rep.Problems)
	}
	if rep.LiveKeys != s.Len() {
		t.Fatalf("checker visited %d keys, store has %d", rep.LiveKeys, s.Len())
	}
	if rep.VSResident == 0 {
		t.Fatalf("expected Value Storage residency: %+v", rep)
	}
	// PWBResident may legitimately be zero if background reclamation
	// drained the rings before the check — don't assert on it.
}

func TestCheckerAfterRecovery(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	for i := 0; i < 2000; i++ {
		th.Put(key(i), value(i))
	}
	s.Crash()
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	settle(s)
	rep := s.CheckInvariants()
	if !rep.OK() {
		t.Fatalf("invariant violations after recovery: %v", rep.Problems)
	}
}

// badPointer is a forward pointer a corrupt HSIT entry may hold, built
// for store s: it names no record of the key it is installed for.
type badPointer struct {
	name string
	ptr  func(t *testing.T, s *Store) hsit.Pointer
}

// outsideMedium names no place inside its medium: no PWB ring, or no
// chunk of a Value Storage store.
var outsideMedium = []badPointer{
	{"PWB past the last ring", func(_ *testing.T, s *Store) hsit.Pointer {
		return hsit.Pointer{Media: hsit.PWB, Len: 3, Off: uint64(s.pwbBase + len(s.pwbs)*s.opt.PWBBytesPerThread)}
	}},
	{"PWB below the first ring", func(_ *testing.T, s *Store) hsit.Pointer {
		return hsit.Pointer{Media: hsit.PWB, Len: 3, Off: uint64(s.pwbBase - 16)}
	}},
	{"VS past the last store", func(_ *testing.T, s *Store) hsit.Pointer {
		return hsit.Pointer{Media: hsit.VS, Len: 3, Off: valuestore.GlobalOff(len(s.ssds), 0)}
	}},
	{"VS past its store's end", func(_ *testing.T, s *Store) hsit.Pointer {
		return hsit.Pointer{Media: hsit.VS, Len: 3, Off: valuestore.GlobalOff(0, uint64(s.ssds[0].Size()))}
	}},
}

// TestCheckerDetectsIllCoupling installs a bad forward pointer for key 1:
// into bytes that are no record, at key 2's record (same length, so only
// the backward pointer tells), or outside its medium. The checker must
// name the key, not panic.
func TestCheckerDetectsIllCoupling(t *testing.T) {
	otherKey := func(t *testing.T, s *Store) hsit.Pointer {
		idx, _ := s.index.Lookup(nil, key(2))
		return s.table.Load(nil, idx)
	}
	cases := append([]badPointer{
		{"no record there", func(_ *testing.T, s *Store) hsit.Pointer {
			return hsit.Pointer{Media: hsit.PWB, Len: 3, Off: uint64(s.pwbBase + 4096)}
		}},
		{"another key's PWB record", otherKey},
		{"another key's VS record", func(t *testing.T, s *Store) hsit.Pointer {
			drain(t, s)
			return otherKey(t, s)
		}},
	}, outsideMedium...)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := small(t, nil)
			th := s.Thread(0)
			th.Put(key(1), value(1))
			th.Put(key(2), value(2))
			idx, ok := s.index.Lookup(nil, key(1))
			if !ok {
				t.Fatal("lookup failed")
			}
			p := c.ptr(t, s)
			s.table.Publish(nil, idx, p)
			rep := s.CheckInvariants()
			want := fmt.Sprintf("key %q", key(1))
			if !slices.ContainsFunc(rep.Problems, func(line string) bool { return strings.Contains(line, want) }) {
				t.Fatalf("forward pointer %v: no problem names %s: %v", p, want, rep.Problems)
			}
		})
	}
}

func TestCheckerDetectsClearedValidityBit(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	const n = 2000
	for i := 0; i < n; i++ {
		th.Put(key(i), value(i))
	}
	drain(t, s) // push everything to Value Storage
	// Clear one live record's validity bit behind the engine's back.
	idx, ok := s.index.Lookup(nil, key(77))
	if !ok {
		t.Fatal("lookup failed")
	}
	p := s.table.Load(nil, idx)
	if p.Media != hsit.VS {
		t.Skip("key 77 not VS-resident after drain")
	}
	s.vsm.Invalidate(p.Off, p.Len)
	rep := s.CheckInvariants()
	if rep.OK() {
		t.Fatal("checker missed a cleared validity bit")
	}
}

func TestCheckerProblemCap(t *testing.T) {
	var rep CheckReport
	for i := 0; i < 100; i++ {
		rep.problem("p%d", i)
	}
	if len(rep.Problems) != 32 || rep.ProblemsOmitted != 68 {
		t.Fatalf("cap broken: %d problems, %d omitted", len(rep.Problems), rep.ProblemsOmitted)
	}
	if rep.OK() {
		t.Fatal("OK with problems")
	}
}
