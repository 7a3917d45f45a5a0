package valuestore

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/epoch"
	"repro/internal/record"
	"repro/internal/sim"
	"repro/internal/ssd"
)

func newStore(t *testing.T, chunks, chunkSize int) (*Store, *epoch.Manager) {
	t.Helper()
	em := epoch.NewManager()
	dev := ssd.New(ssd.Config{Size: int64(chunks * chunkSize)})
	return NewStore(dev, chunkSize, em), em
}

// TestRecordEncodeDecode round-trips arbitrary records through the store:
// a Writer stages and commits one, and ReadAt reads back the backward
// pointer and value it laid out.
func TestRecordEncodeDecode(t *testing.T) {
	f := func(idx uint64, val []byte) bool {
		if len(val) > 4096 {
			val = val[:4096]
		}
		s, _ := newStore(t, 2, 8192)
		w, err := s.NewWriter()
		if err != nil {
			return false
		}
		off, ok := w.Add(idx, val)
		if !ok {
			return false
		}
		done, _ := w.Commit(0)
		req := s.ReadAt(off, len(val))
		s.Dev.Submit(done, []ssd.Request{req})
		gi, gv, ok := record.Decode(req.Data)
		if !ok || gi != idx || !bytes.Equal(gv, val) {
			return false
		}
		gv, err = record.Coupled(req.Data, idx, len(val))
		return err == nil && bytes.Equal(gv, val)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRejectsGarbage reads where no record was written: the zeroed
// bytes of a fresh chunk, and a read shorter than a record header, must
// not decode.
func TestDecodeRejectsGarbage(t *testing.T) {
	s, _ := newStore(t, 2, 4096)
	req := s.ReadAt(0, 32-HeaderSize)
	s.Dev.Submit(0, []ssd.Request{req})
	if _, _, ok := record.Decode(req.Data); ok {
		t.Fatal("decoded zeroed bytes")
	}
	if _, err := record.Coupled(req.Data, 0, 32-HeaderSize); err == nil {
		t.Fatal("coupled zeroed bytes")
	}
	if _, _, ok := record.Decode(req.Data[:2]); ok {
		t.Fatal("decoded short buffer")
	}
}

func TestWriterCommitAndRead(t *testing.T) {
	s, _ := newStore(t, 4, 4096)
	w, err := s.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	vals := map[uint64]uint64{} // hsitIdx -> localOff
	for i := uint64(0); i < 10; i++ {
		off, ok := w.Add(i, []byte(fmt.Sprintf("value-%d", i)))
		if !ok {
			t.Fatal("chunk full unexpectedly")
		}
		vals[i] = off
	}
	done, entries := w.Commit(0)
	if done <= 0 {
		t.Fatal("commit returned no virtual time")
	}
	if len(entries) != 10 {
		t.Fatalf("%d entries", len(entries))
	}
	for i, off := range vals {
		if !s.IsValid(off) {
			t.Fatalf("record %d not valid after commit", i)
		}
		req := s.ReadAt(off, len(fmt.Sprintf("value-%d", i)))
		s.Dev.Submit(done, []ssd.Request{req})
		gi, gv, ok := record.Decode(req.Data)
		if !ok || gi != i || string(gv) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("read back record %d: ok=%v idx=%d val=%q", i, ok, gi, gv)
		}
	}
}

func TestInvalidateAndChunkRecycling(t *testing.T) {
	s, _ := newStore(t, 2, 4096)
	w, _ := s.NewWriter()
	off1, _ := w.Add(1, []byte("a"))
	off2, _ := w.Add(2, []byte("b"))
	w.Commit(0)
	if s.FreeChunks() != 1 {
		t.Fatalf("free = %d", s.FreeChunks())
	}
	if !s.Invalidate(off1, 1) {
		t.Fatal("invalidate live record failed")
	}
	if s.Invalidate(off1, 1) {
		t.Fatal("double invalidate succeeded")
	}
	if s.IsValid(off1) || !s.IsValid(off2) {
		t.Fatal("bitmap wrong after invalidate")
	}
	// Invalidate the last record: the empty chunk is reclaimed at once.
	s.Invalidate(off2, 1)
	if s.FreeChunks() != 2 {
		t.Fatalf("empty chunk not recycled: free = %d", s.FreeChunks())
	}
}

func TestWriterFullAndAbort(t *testing.T) {
	s, em := newStore(t, 1, 256)
	w, _ := s.NewWriter()
	if _, err := s.NewWriter(); err != ErrNoFreeChunk {
		t.Fatalf("second writer err = %v", err)
	}
	// 256-byte chunk fits 2 records of 100B value (112B each) plus none.
	if _, ok := w.Add(1, make([]byte, 100)); !ok {
		t.Fatal("first add failed")
	}
	if _, ok := w.Add(2, make([]byte, 100)); !ok {
		t.Fatal("second add failed")
	}
	if _, ok := w.Add(3, make([]byte, 100)); ok {
		t.Fatal("overfull add succeeded")
	}
	w.Abort()
	em.Barrier()
	if s.FreeChunks() != 1 {
		t.Fatal("aborted chunk not released")
	}
}

func TestEmptyCommitReleasesChunk(t *testing.T) {
	s, em := newStore(t, 1, 256)
	w, _ := s.NewWriter()
	done, entries := w.Commit(77)
	if done != 77 || entries != nil {
		t.Fatalf("empty commit = (%d, %v)", done, entries)
	}
	em.Barrier()
	if s.FreeChunks() != 1 {
		t.Fatal("chunk leaked on empty commit")
	}
}

func TestGCMigratesOnlyLiveRecords(t *testing.T) {
	s, em := newStore(t, 4, 1024)
	// Fill two chunks, then invalidate most records.
	hsit := map[uint64]uint64{} // hsitIdx -> current localOff
	var idx uint64
	for c := 0; c < 2; c++ {
		w, _ := s.NewWriter()
		for {
			off, ok := w.Add(idx, []byte(fmt.Sprintf("v%04d", idx)))
			if !ok {
				break
			}
			hsit[idx] = off
			idx++
		}
		w.Commit(0)
	}
	// Keep only records 0 and 1 of each chunk live.
	live := map[uint64]bool{}
	perChunk := int(idx) / 2
	for i := uint64(0); i < idx; i++ {
		pos := int(i) % perChunk
		if pos < 2 {
			live[i] = true
		} else {
			s.Invalidate(hsit[i], 5)
		}
	}
	relocations := 0
	clk := sim.NewClock(0)
	freed := s.GC(clk, 2, func(h, oldOff, newOff uint64, n int) bool {
		if hsit[h] != oldOff {
			t.Fatalf("relocate with stale old offset for %d", h)
		}
		if !live[h] {
			t.Fatalf("GC migrated dead record %d", h)
		}
		hsit[h] = newOff
		relocations++
		return true
	})
	if freed != 2 {
		t.Fatalf("freed %d chunks, want 2", freed)
	}
	if relocations != 4 {
		t.Fatalf("relocated %d, want 4", relocations)
	}
	if clk.Now() <= 0 {
		t.Fatal("GC consumed no virtual time")
	}
	em.Barrier()
	// All four live records must be valid at their new locations and
	// readable.
	for h := range live {
		if !s.IsValid(hsit[h]) {
			t.Fatalf("record %d invalid after GC", h)
		}
		req := s.ReadAt(hsit[h], 5)
		s.Dev.Submit(clk.Now(), []ssd.Request{req})
		gi, gv, ok := record.Decode(req.Data)
		if !ok || gi != h || string(gv) != fmt.Sprintf("v%04d", h) {
			t.Fatalf("record %d corrupt after GC: %q", h, gv)
		}
	}
	st := s.Stats()
	if st.GCRuns != 1 || st.GCLiveMoved != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGCRespectsFailedRelocation(t *testing.T) {
	s, _ := newStore(t, 4, 1024)
	// Two sparse chunks, so that compacting them nets a whole chunk.
	var offs []uint64
	for i := uint64(0); i < 2; i++ {
		w, _ := s.NewWriter()
		off, _ := w.Add(9+i, []byte("stale"))
		w.Commit(0)
		offs = append(offs, off)
	}
	// Invalidate nothing, but refuse relocation (value superseded, the
	// superseder's Invalidate still on its way).
	refused := 0
	freed := s.GC(sim.NewClock(0), 2, func(h, oldOff, newOff uint64, n int) bool {
		if oldOff != offs[h-9] {
			t.Fatalf("unexpected relocation of %d from %d", h, oldOff)
		}
		refused++
		return false
	})
	if refused != 2 {
		t.Fatalf("GC offered %d relocations, want 2", refused)
	}
	// The new location must have been invalidated; chunk accounting must
	// not count the failed migration as live anywhere permanent.
	st := s.Stats()
	if st.GCLiveMoved != 0 {
		t.Fatalf("failed relocation counted as moved: %+v", st)
	}
	// A refused record was not moved: it is still valid where it was, and
	// its chunk is back in service, not on the free list.
	if freed != 0 || st.FreeChunks != 2 || st.LiveChunks != 2 {
		t.Fatalf("GC freed %d victims of refused relocations: %+v", freed, st)
	}
	for _, off := range offs {
		if !s.IsValid(off) {
			t.Fatalf("refused record at %d lost its validity bit", off)
		}
	}
	// The superseder's Invalidate then empties and recycles each chunk.
	for _, off := range offs {
		s.Invalidate(off, 5)
	}
	if got := s.FreeChunks(); got != 4 {
		t.Fatalf("%d free chunks after the records were invalidated, want 4", got)
	}
}

// TestWriteChunkSealsAfterSettle: between a chunk's device write and its
// last settle no claimer can take it — a GC or a DemoteChunk run from
// inside settle finds nothing to do, however sparse the chunk — and an
// Invalidate that empties it leaves the recycling to the seal.
func TestWriteChunkSealsAfterSettle(t *testing.T) {
	s, _ := newStore(t, 8, 1024)
	dest, _ := newStore(t, 8, 1024)
	// claimers runs both claimers while the chunk holding localOff is
	// being settled; they may take the sealed chunk of an earlier round
	// (and are refused its records), never this one.
	claimers := func(localOff uint64) {
		refuse := func(h, oldOff, newOff uint64, n int) bool {
			if oldOff/1024 == localOff/1024 {
				t.Errorf("a claimer took record %d of a chunk still being settled", h)
			}
			return false
		}
		if freed := s.GC(sim.NewClock(0), 8, refuse); freed != 0 {
			t.Errorf("GC freed %d chunks from inside settle", freed)
		}
		s.DemoteChunk(sim.NewClock(0), 0, dest, 0, func(uint64) bool { return true }, refuse)
	}
	moves := []Move{{HSITIdx: 1, Value: []byte("one")}, {HSITIdx: 2, Value: []byte("two")}, {HSITIdx: 3, Value: []byte("three")}}

	// Two sparse chunks at once make GC willing; the first is sealed.
	var kept []Entry
	for round := 0; round < 2; round++ {
		clk := sim.NewClock(0)
		n, err := s.WriteChunk(clk, 0, moves, func(i int, e Entry) bool {
			claimers(e.LocalOff)
			if !s.IsValid(e.LocalOff) {
				t.Errorf("record %d not valid at its settle", i)
			}
			kept = append(kept, e)
			return i != 1 // the middle record lost its race
		})
		if err != nil || n != len(moves) || clk.Now() == 0 {
			t.Fatalf("WriteChunk = %d, %v at %d", n, err, clk.Now())
		}
	}
	for i, e := range kept {
		if s.IsValid(e.LocalOff) != (i%3 != 1) {
			t.Fatalf("entry %d validity after settle = %v", i, s.IsValid(e.LocalOff))
		}
	}
	if st := s.Stats(); st.LiveChunks != 2 || st.FreeChunks != 6 {
		t.Fatalf("after two sealed chunks: %+v", st)
	}
	// Sealed, the same two chunks are fair game.
	if freed := s.GC(sim.NewClock(0), 8, func(h, oldOff, newOff uint64, n int) bool { return true }); freed != 2 {
		t.Fatalf("GC freed %d sealed sparse chunks, want 2", freed)
	}

	// Every record refused, or invalidated before the seal: the chunk is
	// recycled by the seal, not earlier and not never.
	before := s.FreeChunks()
	if _, err := s.WriteChunk(sim.NewClock(0), 0, moves, func(i int, e Entry) bool {
		if i == 0 {
			return false
		}
		s.Invalidate(e.LocalOff, e.ValueLen) // published, then superseded at once
		if got := s.FreeChunks(); got != before-1 {
			t.Errorf("chunk recycled under its writer: %d free, want %d", got, before-1)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.FreeChunks(); got != before {
		t.Fatalf("emptied chunk not recycled at seal: %d free, want %d", got, before)
	}
}

func TestGlobalOffsetRoundTrip(t *testing.T) {
	f := func(dev uint8, off uint64) bool {
		d := int(dev % 64)
		o := off & localOffMask
		gd, go_ := SplitOff(GlobalOff(d, o))
		return gd == d && go_ == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestManagerPickIdleAndInvalidate(t *testing.T) {
	em := epoch.NewManager()
	var devs []*ssd.Device
	for i := 0; i < 4; i++ {
		devs = append(devs, ssd.New(ssd.Config{Size: 1 << 16, Name: fmt.Sprintf("ssd%d", i)}))
	}
	m := NewManager(devs, 4096, em)
	rng := sim.NewRNG(3)
	di, st := m.PickIdle(rng)
	if st != m.Stores[di] {
		t.Fatal("PickIdle index/store mismatch")
	}
	w, _ := st.NewWriter()
	local, _ := w.Add(5, []byte("x"))
	w.Commit(0)
	g := GlobalOff(di, local)
	if !m.isValid(g) {
		t.Fatal("record not valid via manager")
	}
	if !m.Invalidate(g, 1) {
		t.Fatal("manager invalidate failed")
	}
	if m.isValid(g) {
		t.Fatal("record valid after invalidate")
	}
}

func TestRecoveryRebuild(t *testing.T) {
	em := epoch.NewManager()
	dev := ssd.New(ssd.Config{Size: 8 * 1024})
	m := NewManager([]*ssd.Device{dev}, 1024, em)
	s := m.Stores[0]
	w, _ := s.NewWriter()
	offA, _ := w.Add(1, []byte("aaaa"))
	offB, _ := w.Add(2, []byte("bbbb"))
	w.Commit(0)

	// Crash: volatile bitmaps are lost. Rebuild with only A reachable.
	m.BeginRecovery()
	if s.FreeChunks() != 0 {
		t.Fatal("BeginRecovery left free chunks")
	}
	m.MarkRecovered(GlobalOff(0, offA), 4)
	m.FinishRecovery()
	if !m.isValid(GlobalOff(0, offA)) {
		t.Fatal("reachable record not valid after recovery")
	}
	if m.isValid(GlobalOff(0, offB)) {
		t.Fatal("unreachable record valid after recovery")
	}
	if s.FreeChunks() != 7 {
		t.Fatalf("free chunks after recovery = %d, want 7", s.FreeChunks())
	}
	// The revived chunk is 100% live from recovery's perspective, so the
	// greedy policy must NOT churn it.
	moved := 0
	s.GC(sim.NewClock(0), 8, func(h, oldOff, newOff uint64, n int) bool {
		moved++
		return true
	})
	if moved != 0 {
		t.Fatalf("GC churned a fully-live recovered chunk (%d moved)", moved)
	}
	// Add a second sparse chunk; now compaction nets a whole chunk, so
	// GC must merge both survivors (A and C) into one output chunk.
	w2, _ := s.NewWriter()
	offC, _ := w2.Add(3, []byte("cccc"))
	offD, _ := w2.Add(4, []byte("dddd"))
	w2.Commit(0)
	m.Invalidate(GlobalOff(0, offD), 4)
	newLoc := map[uint64]uint64{}
	s.GC(sim.NewClock(0), 8, func(h, oldOff, newOff uint64, n int) bool {
		if h != 1 && h != 3 {
			t.Fatalf("unexpected relocation: h=%d old=%d", h, oldOff)
		}
		newLoc[h] = newOff
		return true
	})
	if len(newLoc) != 2 {
		t.Fatalf("GC merged %d survivors, want 2 (A and C)", len(newLoc))
	}
	for h, off := range newLoc {
		if !s.IsValid(off) {
			t.Fatalf("survivor %d invalid after GC", h)
		}
	}
	_ = offC
}

func TestStatsAccumulate(t *testing.T) {
	s, _ := newStore(t, 4, 1024)
	w, _ := s.NewWriter()
	w.Add(1, make([]byte, 100))
	w.Commit(0)
	st := s.Stats()
	if st.ChunksWritten != 1 || st.BytesWritten != int64(record.Size(100)) {
		t.Fatalf("stats = %+v", st)
	}
	if st.LiveChunks != 1 || st.FreeChunks != 3 {
		t.Fatalf("chunk accounting = %+v", st)
	}
}

// TestWriterReleaseReusesBuffers: a released writer's chunk buffer and
// entry slice serve the next writer, so a steady writer allocates
// nothing per chunk — and nothing of the previous chunk shows in the
// next one's records or entries.
func TestWriterReleaseReusesBuffers(t *testing.T) {
	s, _ := newStore(t, 8, 4096)
	round := func(seed byte, n int) {
		w, err := s.NewWriter()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			w.Add(uint64(seed)<<8|uint64(i), bytes.Repeat([]byte{seed}, 100))
		}
		done, entries := w.Commit(0)
		if len(entries) != n {
			t.Fatalf("%d entries, want %d", len(entries), n)
		}
		for i, e := range entries {
			req := s.ReadAt(e.LocalOff, e.ValueLen)
			s.Dev.Submit(done, []ssd.Request{req})
			idx, val, ok := record.Decode(req.Data)
			if !ok || idx != uint64(seed)<<8|uint64(i) || !bytes.Equal(val, bytes.Repeat([]byte{seed}, 100)) {
				t.Fatalf("round %c record %d read back idx %#x %.8q ok=%v", seed, i, idx, val, ok)
			}
			s.Invalidate(e.LocalOff, e.ValueLen) // frees the chunk for the next round
		}
		w.Release()
	}
	round('a', 30)
	round('b', 7) // shorter: the tail of round a is still in the buffer
	val := make([]byte, 100)
	if allocs := testing.AllocsPerRun(20, func() {
		w, _ := s.NewWriter()
		for i := 0; i < 30; i++ {
			w.Add(uint64(i), val)
		}
		_, entries := w.Commit(0)
		for _, e := range entries {
			s.Invalidate(e.LocalOff, e.ValueLen)
		}
		w.Release()
	}); allocs != 0 {
		t.Fatalf("a released-and-reused writer cost %.0f allocations per chunk", allocs)
	}
}

// Concurrent WriteChunk callers never have two writes in flight on the
// device, so its staging pool stays at the one buffer the first chunk
// allocated however the callers interleave: no run pays for a second
// buffer at whatever moment two of them first overlap.
func TestChunkWritesShareOneStagingBuffer(t *testing.T) {
	const writers, rounds, chunkSize = 4, 100, 1 << 20
	s, _ := newStore(t, 2*writers, chunkSize)
	val := make([]byte, chunkSize/2)
	lost := func(int, Entry) bool { return false } // every chunk comes straight back

	// As many writers as will ever be open at once, and one staged write.
	var held []*Writer
	for i := 0; i < writers; i++ {
		w, err := s.NewWriter()
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, w)
	}
	for _, w := range held {
		w.Abort()
		w.Release()
	}
	if _, err := s.WriteChunk(sim.NewClock(0), 0, []Move{{Value: val}}, lost); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clk, moves := sim.NewClock(0), []Move{{HSITIdx: uint64(g), Value: val}}
			for i := 0; i < rounds; i++ {
				if _, err := s.WriteChunk(clk, 0, moves, lost); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(len(val)) {
		t.Fatalf("%d concurrent chunk writes allocated %d bytes: a second staging buffer of %d", writers*rounds, got, len(val))
	}
}
