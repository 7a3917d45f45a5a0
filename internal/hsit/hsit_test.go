package hsit

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/epoch"
	"repro/internal/nvm"
)

func newTable(capacity int) (*Table, *nvm.Device, *epoch.Manager) {
	dev := nvm.New(nvm.Config{Size: capacity*EntrySize + 4096})
	em := epoch.NewManager()
	return New(dev, 0, capacity, em), dev, em
}

// svcOf is the entry's SVC handle, read for free.
func svcOf(tb *Table, idx uint64) uint64 {
	_, h := tb.Entry(nil, idx)
	return h
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(media uint8, length uint16, off uint64) bool {
		p := Pointer{
			Media: Media(media%2 + 1), // PWB or VS
			Len:   int(length),
			Off:   off & MaxOffset,
		}
		return Decode(Encode(p)) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if !Decode(Encode(Pointer{})).IsNil() {
		t.Fatal("nil pointer round trip failed")
	}
}

func TestEncodeRejectsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized length did not panic")
		}
	}()
	Encode(Pointer{Media: PWB, Len: MaxValueLen + 1})
}

func TestAllocPublishLoad(t *testing.T) {
	tb, _, _ := newTable(16)
	idx, err := tb.Alloc(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tb.Load(nil, idx).IsNil() {
		t.Fatal("fresh entry not nil")
	}
	p := Pointer{Media: PWB, Len: 100, Off: 4096}
	old, _ := tb.Publish(nil, idx, p)
	if !old.IsNil() {
		t.Fatalf("publish returned old=%v", old)
	}
	if got := tb.Load(nil, idx); got != p {
		t.Fatalf("Load = %v, want %v", got, p)
	}
	if tb.Live() != 1 || tb.SpaceBytes() != EntrySize {
		t.Fatalf("Live=%d Space=%d", tb.Live(), tb.SpaceBytes())
	}
}

func TestPublishReturnsReplacedPointer(t *testing.T) {
	tb, _, _ := newTable(4)
	idx, _ := tb.Alloc(nil)
	p1 := Pointer{Media: PWB, Len: 10, Off: 100}
	p2 := Pointer{Media: VS, Len: 10, Off: 200}
	tb.Publish(nil, idx, p1)
	if old, _ := tb.Publish(nil, idx, p2); old != p1 {
		t.Fatalf("old = %v, want %v", old, p1)
	}
	if got := tb.Load(nil, idx); got != p2 {
		t.Fatalf("Load = %v", got)
	}
}

func TestPublishIf(t *testing.T) {
	tb, _, _ := newTable(4)
	idx, _ := tb.Alloc(nil)
	p1 := Pointer{Media: PWB, Len: 10, Off: 100}
	p2 := Pointer{Media: VS, Len: 10, Off: 200}
	p3 := Pointer{Media: VS, Len: 10, Off: 300}
	tb.Publish(nil, idx, p1)
	ver, ok := tb.PublishIf(nil, idx, p1, p2)
	if !ok {
		t.Fatal("PublishIf with matching expect failed")
	}
	if got := tb.Version(idx); got != ver {
		t.Fatalf("PublishIf returned version %d, the entry is at %d", ver, got)
	}
	if _, ok := tb.PublishIf(nil, idx, p1, p3); ok {
		t.Fatal("PublishIf with stale expect succeeded")
	}
	if got := tb.Version(idx); got != ver {
		t.Fatalf("a refused PublishIf moved the version: %d -> %d", ver, got)
	}
	if got := tb.Load(nil, idx); got != p2 {
		t.Fatalf("Load = %v, want %v", got, p2)
	}
}

// The durable-linearizability core: a published pointer survives a crash
// because Publish persists before clearing the dirty bit.
func TestPublishIsDurable(t *testing.T) {
	tb, dev, _ := newTable(4)
	idx, _ := tb.Alloc(nil)
	p := Pointer{Media: PWB, Len: 42, Off: 1234}
	tb.Publish(nil, idx, p)
	dev.Crash()
	if got := tb.Load(nil, idx); got != p {
		t.Fatalf("published pointer lost on crash: %v", got)
	}
}

// Flush-on-read: a reader that sees a dirty pointer persists it before
// use, so the value it acts on can never be rolled back by a crash.
func TestFlushOnRead(t *testing.T) {
	tb, dev, _ := newTable(4)
	idx, _ := tb.Alloc(nil)
	// Simulate a writer that CASed in a dirty pointer and stalled before
	// its flush: store the dirty word directly without persisting.
	p := Pointer{Media: VS, Len: 7, Off: 999}
	dev.StoreUint64(nil, int(idx)*EntrySize, Encode(p)|dirtyBit)

	got := tb.Load(nil, idx)
	if got != p {
		t.Fatalf("Load = %v, want %v", got, p)
	}
	// The read must have persisted the pointer value. (The dirty bit may
	// legitimately persist as set — a crash between the flush and the
	// clearing CAS leaves it; the next reader simply flushes again.)
	dev.Crash()
	w := dev.LoadUint64(nil, int(idx)*EntrySize)
	if Decode(w) != p {
		t.Fatalf("pointer not durable after flush-on-read: %v", Decode(w))
	}
	if got := tb.Load(nil, idx); got != p {
		t.Fatalf("post-crash Load = %v, want %v", got, p)
	}
}

func TestUnpersistedPointerRollsBack(t *testing.T) {
	tb, dev, _ := newTable(4)
	idx, _ := tb.Alloc(nil)
	p1 := Pointer{Media: PWB, Len: 1, Off: 10}
	tb.Publish(nil, idx, p1)
	// A dirty update that nobody read or flushed: lost on crash.
	p2 := Pointer{Media: PWB, Len: 2, Off: 20}
	dev.StoreUint64(nil, int(idx)*EntrySize, Encode(p2)|dirtyBit)
	dev.Crash()
	if got := tb.Load(nil, idx); got != p1 {
		t.Fatalf("after crash = %v, want rollback to %v", got, p1)
	}
}

func TestSVCWord(t *testing.T) {
	tb, _, _ := newTable(4)
	idx, _ := tb.Alloc(nil)
	if svcOf(tb, idx) != 0 {
		t.Fatal("fresh SVC word nonzero")
	}
	if !tb.CasSVC(nil, idx, 0, 55) {
		t.Fatal("CasSVC from 0 failed")
	}
	if tb.CasSVC(nil, idx, 0, 66) {
		t.Fatal("stale CasSVC succeeded")
	}
	if svcOf(tb, idx) != 55 {
		t.Fatalf("SVC = %d", svcOf(tb, idx))
	}
}

func TestAllocExhaustionAndFree(t *testing.T) {
	tb, _, em := newTable(4)
	var idxs []uint64
	for i := 0; i < 4; i++ {
		idx, err := tb.Alloc(nil)
		if err != nil {
			t.Fatal(err)
		}
		idxs = append(idxs, idx)
	}
	if _, err := tb.Alloc(nil); err != ErrFull {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	tb.Free(idxs[2])
	// Not yet reusable: two epochs must pass.
	if _, err := tb.Alloc(nil); err != ErrFull {
		t.Fatal("freed entry reusable before two epochs")
	}
	em.Barrier()
	idx, err := tb.Alloc(nil)
	if err != nil {
		t.Fatal(err)
	}
	if idx != idxs[2] {
		t.Fatalf("recycled %d, want %d", idx, idxs[2])
	}
}

func TestAllocZeroesRecycledEntry(t *testing.T) {
	tb, _, em := newTable(2)
	idx, _ := tb.Alloc(nil)
	tb.Publish(nil, idx, Pointer{Media: VS, Len: 5, Off: 77})
	tb.CasSVC(nil, idx, 0, 123)
	tb.Free(idx)
	em.Barrier()
	idx2, _ := tb.Alloc(nil)
	if idx2 != idx {
		t.Fatalf("expected recycle of %d, got %d", idx, idx2)
	}
	if !tb.Load(nil, idx2).IsNil() || svcOf(tb, idx2) != 0 {
		t.Fatal("recycled entry not zeroed")
	}
}

func TestConcurrentPublishersLastWriterWins(t *testing.T) {
	tb, _, _ := newTable(8)
	idx, _ := tb.Alloc(nil)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tb.Publish(nil, idx, Pointer{Media: PWB, Len: w + 1, Off: uint64(i)})
			}
		}(w)
	}
	wg.Wait()
	got := tb.Load(nil, idx)
	if got.Media != PWB || got.Len < 1 || got.Len > workers {
		t.Fatalf("final pointer implausible: %v", got)
	}
}

func TestConcurrentAllocUnique(t *testing.T) {
	tb, _, _ := newTable(1024)
	var mu sync.Mutex
	seen := map[uint64]bool{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 128; i++ {
				idx, err := tb.Alloc(nil)
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				mu.Lock()
				if seen[idx] {
					t.Errorf("duplicate index %d", idx)
				}
				seen[idx] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != 1024 {
		t.Fatalf("allocated %d unique, want 1024", len(seen))
	}
}

func TestRebuildVolatile(t *testing.T) {
	tb, dev, em := newTable(8)
	for i := 0; i < 6; i++ {
		idx, _ := tb.Alloc(nil)
		tb.Publish(nil, idx, Pointer{Media: VS, Len: 1, Off: uint64(i)})
		tb.CasSVC(nil, idx, 0, uint64(100+i))
	}
	dev.Crash()
	// Entries 0,2,4 reachable from the key index; others leaked.
	live := tb.RebuildVolatile(func(idx uint64) bool { return idx%2 == 0 }, 6)
	if live != 3 {
		t.Fatalf("live = %d, want 3", live)
	}
	for idx := uint64(0); idx < 6; idx++ {
		if svcOf(tb, idx) != 0 {
			t.Fatalf("SVC word %d not nullified", idx)
		}
		if idx%2 == 1 && !tb.Load(nil, idx).IsNil() {
			t.Fatalf("unreachable entry %d not cleared", idx)
		}
	}
	// Freed slots are immediately allocatable (recovery is quiescent).
	for i := 0; i < 5; i++ { // 3 recycled (1,3,5) + bump 6,7
		if _, err := tb.Alloc(nil); err != nil {
			t.Fatalf("alloc %d after rebuild: %v", i, err)
		}
	}
	if _, err := tb.Alloc(nil); err != ErrFull {
		t.Fatal("capacity accounting broken after rebuild")
	}
	_ = em
}
