package pwb

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/nvm"
	"repro/internal/record"
	"repro/internal/sim"
)

func newBuf(size int) (*Buffer, *nvm.Device) {
	dev := nvm.New(nvm.Config{Size: size + 4096})
	return NewBuffer(dev, 0, size), dev
}

func TestAppendAndReadValue(t *testing.T) {
	b, _ := newBuf(1024)
	val := []byte("the value payload")
	off, _, err := b.Append(nil, 42, val)
	if err != nil {
		t.Fatal(err)
	}
	got := b.ReadValue(nil, off, len(val))
	if !bytes.Equal(got, val) {
		t.Fatalf("ReadValue = %q, want %q", got, val)
	}
}

func TestAppendIsDurableBeforeReturn(t *testing.T) {
	b, dev := newBuf(1024)
	val := []byte("must survive crash")
	off, _, err := b.Append(nil, 7, val)
	if err != nil {
		t.Fatal(err)
	}
	dev.Crash()
	got := make([]byte, len(val))
	dev.Load(nil, int(off)+record.HeaderSize, got)
	if !bytes.Equal(got, val) {
		t.Fatalf("value lost on crash: %q", got)
	}
}

func TestAppendOnlyOldVersionsSurvive(t *testing.T) {
	b, _ := newBuf(4096)
	off1, _, _ := b.Append(nil, 1, []byte("version-1"))
	off2, _, _ := b.Append(nil, 1, []byte("version-2"))
	if off1 == off2 {
		t.Fatal("append-only buffer reused an offset")
	}
	if got := b.ReadValue(nil, off1, 9); string(got) != "version-1" {
		t.Fatalf("old version overwritten: %q", got)
	}
	if got := b.ReadValue(nil, off2, 9); string(got) != "version-2" {
		t.Fatalf("new version wrong: %q", got)
	}
}

func TestFullAndRelease(t *testing.T) {
	b, _ := newBuf(256)
	var lastLogical uint64
	n := 0
	for {
		_, logical, err := b.Append(nil, uint64(n), []byte("0123456789012345")) // 32B records
		if err == ErrFull {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		lastLogical = logical
		n++
	}
	if n != 256/32 {
		t.Fatalf("fit %d records, want 8", n)
	}
	if b.Utilization() != 1.0 {
		t.Fatalf("utilization = %v", b.Utilization())
	}
	// Release the first half and append again.
	b.Grant(128)
	b.ApplyGrants()
	if b.Used() != 128 {
		t.Fatalf("Used = %d after release", b.Used())
	}
	if _, _, err := b.Append(nil, 99, make([]byte, 120)); err != ErrFull {
		t.Fatal("append beyond free space did not report full")
	}
	for i := 0; i < 4; i++ {
		if _, _, err := b.Append(nil, 100+uint64(i), []byte("0123456789012345")); err != nil {
			t.Fatalf("append after release: %v", err)
		}
	}
	_ = lastLogical
}

func TestWraparoundPadding(t *testing.T) {
	b, _ := newBuf(256)
	// 3 x 80-byte records (96B on NVM each): third leaves 64B at the end.
	for i := 0; i < 2; i++ {
		if _, _, err := b.Append(nil, uint64(i), make([]byte, 80)); err != nil {
			t.Fatal(err)
		}
	}
	b.Grant(96) // free the first record
	b.ApplyGrants()
	// 64B remain at ring end; an 80-byte record (96B) must pad and wrap.
	off, _, err := b.Append(nil, 2, make([]byte, 80))
	if err != nil {
		t.Fatal(err)
	}
	if off != 0 { // wrapped to the region base
		t.Fatalf("wrapped record at %d, want 0", off)
	}
	// Scan must skip the pad and see all three records.
	var seen []uint64
	if err := b.Scan(nil, b.Tail(), b.Head(), func(r Record) bool {
		seen = append(seen, r.HSITIdx)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("scan after wrap = %v", seen)
	}
}

func TestScanYieldsValuesAndOffsets(t *testing.T) {
	b, _ := newBuf(2048)
	want := map[uint64]string{}
	for i := 0; i < 10; i++ {
		v := fmt.Sprintf("value-%02d", i)
		b.Append(nil, uint64(i), []byte(v))
		want[uint64(i)] = v
	}
	n := 0
	if err := b.Scan(nil, b.Tail(), b.Head(), func(r Record) bool {
		if want[r.HSITIdx] != string(r.Value) {
			t.Fatalf("record %d = %q", r.HSITIdx, r.Value)
		}
		// DevOff must read back the same value.
		if got := b.ReadValue(nil, r.DevOff, len(r.Value)); !bytes.Equal(got, r.Value) {
			t.Fatalf("DevOff mismatch for %d", r.HSITIdx)
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("scanned %d records", n)
	}
}

func TestScanEarlyStop(t *testing.T) {
	b, _ := newBuf(2048)
	for i := 0; i < 10; i++ {
		b.Append(nil, uint64(i), []byte("x"))
	}
	n := 0
	if err := b.Scan(nil, b.Tail(), b.Head(), func(r Record) bool {
		n++
		return n < 3
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("early stop scanned %d", n)
	}
}

func TestOversizedValueRejected(t *testing.T) {
	b, _ := newBuf(256)
	if _, _, err := b.Append(nil, 1, make([]byte, 300)); err == nil || err == ErrFull {
		t.Fatalf("oversized append: err = %v", err)
	}
}

func TestReleaseToNeverRegresses(t *testing.T) {
	b, _ := newBuf(256)
	b.Append(nil, 1, make([]byte, 16))
	b.Grant(32)
	b.ApplyGrants()
	b.Grant(16) // stale release must not move tail backwards
	b.ApplyGrants()
	if b.Tail() != 32 {
		t.Fatalf("tail = %d", b.Tail())
	}
}

// TestPWBWrapABA pins the ring-wrap aliasing that enabled the seed's
// reclamation race: with a ring sized to wrap within a few appends, the
// physical offset (GlobalOff / Append's devOff) of logical cursor L is
// identical to that of L+size — so any liveness decision keyed on the
// physical offset alone is ABA-prone. The frozen-tail protocol (Grant +
// ApplyGrants) is what makes the reclaimer immune: space granted during
// a pass must not become appendable until the owner applies it.
func TestPWBWrapABA(t *testing.T) {
	b, _ := newBuf(128) // 2 x 64B records per lap
	v := make([]byte, 48)
	off0, logical0, err := b.Append(nil, 0, v)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Append(nil, 1, v); err != nil {
		t.Fatal(err)
	}

	// Grant alone must not free space: the scan owner has not applied it.
	b.Grant(64)
	if _, _, err := b.Append(nil, 2, v); err != ErrFull {
		t.Fatalf("append consumed granted-but-unapplied space: err = %v", err)
	}
	if b.Tail() != 0 {
		t.Fatalf("Grant moved the tail to %d", b.Tail())
	}

	// ApplyGrants (the owner, between passes) releases it; the next
	// append physically aliases record 0 one lap later.
	b.ApplyGrants()
	if b.Tail() != 64 {
		t.Fatalf("tail = %d after ApplyGrants, want 64", b.Tail())
	}
	off2, logical2, err := b.Append(nil, 2, v)
	if err != nil {
		t.Fatal(err)
	}
	if off2 != off0 {
		t.Fatalf("wrapped record at %d, want alias of %d", off2, off0)
	}
	if logical2 == logical0 {
		t.Fatal("logical cursors must stay distinct across laps")
	}
	if b.GlobalOff(logical0) != b.GlobalOff(logical2) {
		t.Fatal("GlobalOff should alias across exactly one lap")
	}

	// Stale grants never regress the tail.
	b.Grant(32)
	b.ApplyGrants()
	if b.Tail() != 64 {
		t.Fatalf("stale grant moved tail to %d", b.Tail())
	}
}

// TestScanCorruptHeaderReturnsError covers the panic→error conversion: a
// first header that parses as neither a record nor padding, or whose
// footprint runs past the scanned range, must surface as ErrCorruptRecord
// so the reclaimer can abort its pass — not crash reading 1 GiB off the
// ring, and not step over the second record as if it had been scanned.
func TestScanCorruptHeaderReturnsError(t *testing.T) {
	hdr := func(put func(h []byte)) []byte {
		h := make([]byte, record.HeaderSize)
		put(h)
		return h
	}
	for _, c := range []struct {
		name string
		hdr  []byte
	}{
		{"no magic", bytes.Repeat([]byte{0xde}, record.HeaderSize)},
		{"length 1<<30", hdr(func(h []byte) { record.PutHeader(h, 1, 1<<30) })},
		{"length 100", hdr(func(h []byte) { record.PutHeader(h, 1, 100) })},
		{"pad of 128", hdr(func(h []byte) { record.PutPad(h, 128) })},
	} {
		t.Run(c.name, func(t *testing.T) {
			b, dev := newBuf(256)
			for i := uint64(1); i <= 2; i++ {
				if _, _, err := b.Append(nil, i, make([]byte, 16)); err != nil {
					t.Fatal(err)
				}
			}
			dev.Store(nil, 0, c.hdr)
			var seen []uint64
			err := b.Scan(nil, b.Tail(), b.Head(), func(r Record) bool { seen = append(seen, r.HSITIdx); return true })
			if !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("Scan = %v after yielding %v, want ErrCorruptRecord", err, seen)
			}
		})
	}
}

// TestUnpublishedFloor covers the append-to-publish window contract: a
// record is excluded from the reclaimable range until the owner calls
// Published.
func TestUnpublishedFloor(t *testing.T) {
	b, _ := newBuf(256)
	if b.unpublishedFloor() != ^uint64(0) {
		t.Fatalf("fresh buffer floor = %d", b.unpublishedFloor())
	}
	_, logical, err := b.Append(nil, 1, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	if b.unpublishedFloor() != logical {
		t.Fatalf("floor = %d after append, want %d", b.unpublishedFloor(), logical)
	}
	b.Published()
	if b.unpublishedFloor() != ^uint64(0) {
		t.Fatalf("floor = %d after publish", b.unpublishedFloor())
	}
	b.Append(nil, 2, make([]byte, 16))
	b.Reset()
	if b.unpublishedFloor() != ^uint64(0) || b.Tail() != 0 || b.Head() != 0 {
		t.Fatal("Reset did not clear cursors and publish-pending mark")
	}
}

// TestUnpublishedFloorBatch covers the batch publish window: several
// appends before one Published must keep the floor at the FIRST
// unpublished record — if a later append raised it, the reclaimer could
// release earlier records of the window while their HSIT publishes are
// still in flight (the PR 3 race, reintroduced batch-style).
func TestUnpublishedFloorBatch(t *testing.T) {
	b, _ := newBuf(1024)
	_, first, err := b.Append(nil, 1, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(2); i <= 4; i++ {
		if _, _, err := b.Append(nil, i, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
		if got := b.unpublishedFloor(); got != first {
			t.Fatalf("floor moved to %d after append %d, want pinned at %d", got, i, first)
		}
	}
	b.Published()
	if b.unpublishedFloor() != ^uint64(0) {
		t.Fatalf("floor = %d after batch publish", b.unpublishedFloor())
	}
	// The next window starts at the next append's cursor, not the old one.
	_, next, err := b.Append(nil, 5, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.unpublishedFloor(); got != next {
		t.Fatalf("new window floor = %d, want %d", got, next)
	}
	b.Published()
}

func TestCostCharging(t *testing.T) {
	b, _ := newBuf(1024)
	clk := sim.NewClock(0)
	b.Append(clk, 1, make([]byte, 128))
	if clk.Now() == 0 {
		t.Fatal("append charged no virtual time")
	}
}

// TestAppendAtChargesBodyThenSeal: AppendAt charges the record's body on
// its clock from the clock's time, and the seal — the header's store, its
// line's flush and the fence — from the later of the body's end and
// sealAt. At sealAt 0 it costs exactly what Append costs, and the record
// is as durable at every sealAt.
func TestAppendAtChargesBodyThenSeal(t *testing.T) {
	val := bytes.Repeat([]byte{'v'}, 1000)
	appendAt := func(from, sealAt int64) int64 {
		b, dev := newBuf(4096)
		clk := sim.NewClock(from)
		off, _, err := b.AppendAt(clk, 1, val, sealAt)
		if err != nil {
			t.Fatal(err)
		}
		dev.Crash()
		rec := make([]byte, record.HeaderSize+len(val))
		dev.Load(nil, int(off), rec)
		if idx, n, kind := record.ParseHeader(rec); kind != record.Value || idx != 1 || n != len(val) || !bytes.Equal(rec[record.HeaderSize:], val) {
			t.Errorf("seal at %d: after a crash the record reads %v idx %d, %d bytes", sealAt, kind, idx, n)
		}
		return clk.Now()
	}
	one, dev := newBuf(4096)
	clk := sim.NewClock(0)
	if _, _, err := one.Append(clk, 1, val); err != nil {
		t.Fatal(err)
	}
	whole := clk.Now()
	cfg := dev.Config()
	seal := cfg.WriteLatency + sim.TransferNS(record.HeaderSize, nvm.CacheFillBandwidth) +
		2*cfg.FlushLatency + sim.TransferNS(nvm.LineSize, cfg.WriteBandwidth) + cfg.FenceLatency
	body := whole - seal
	if body <= 0 {
		t.Fatalf("Append costs %d ns, no more than its seal's %d", whole, seal)
	}
	const from = 5_000
	for _, tc := range []struct {
		name         string
		from, sealAt int64
		want         int64
	}{
		{"sealAt 0 is Append", 0, 0, whole},
		{"body from the clock's time", from, 0, from + whole},
		{"sealAt inside the body", from, from + body/2, from + whole},
		{"sealAt at the body's end", from, from + body, from + whole},
		{"sealAt past the body's end", from, from + body + 10_000, from + body + 10_000 + seal},
	} {
		if got := appendAt(tc.from, tc.sealAt); got != tc.want {
			t.Errorf("%s: clock from %d, sealAt %d ends at %d, want %d (body %d + seal %d ns)",
				tc.name, tc.from, tc.sealAt, got, tc.want, body, seal)
		}
	}
}

func TestManyLapsConsistency(t *testing.T) {
	b, _ := newBuf(512)
	logicalOf := map[int]uint64{}
	offOf := map[int]uint64{}
	val := func(i int) []byte { return []byte(fmt.Sprintf("payload-%06d", i)) } // 28B -> 48B rec
	next := 0
	for lap := 0; lap < 20; lap++ {
		for {
			off, logical, err := b.Append(nil, uint64(next), val(next))
			if err == ErrFull {
				break
			}
			logicalOf[next] = logical
			offOf[next] = off
			next++
		}
		// Verify the resident window then release half of it.
		if err := b.Scan(nil, b.Tail(), b.Head(), func(r Record) bool {
			if !bytes.Equal(r.Value, val(int(r.HSITIdx))) {
				t.Fatalf("lap %d: record %d corrupted: %q", lap, r.HSITIdx, r.Value)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		b.Grant(b.Tail() + uint64(b.Used()/2/16*16))
		b.ApplyGrants()
	}
	if next < 100 {
		t.Fatalf("only %d appends across 20 laps", next)
	}
}

// TestScanCursor covers the reclaim cursor: ScanRange starts where the
// last Scanned left off — not at the tail, which trails by a grace
// period — stops below the publish-pending floor, and Reset takes the
// cursor back to the start with the rest of the ring.
func TestScanCursor(t *testing.T) {
	b, _ := newBuf(1024)
	for i := 0; i < 3; i++ {
		b.Append(nil, uint64(i), make([]byte, 16))
		b.Published()
	}
	from, to := b.ScanRange()
	if from != 0 || to != b.Head() {
		t.Fatalf("first range [%d,%d), head %d", from, to, b.Head())
	}
	// A pass that aborts does not call Scanned: same range again.
	if f, e := b.ScanRange(); f != from || e != to {
		t.Fatalf("range moved without Scanned: [%d,%d)", f, e)
	}
	b.Scanned(to, 0)
	b.Grant(to) // tail stays until ApplyGrants; the cursor does not wait for it
	_, pending, _ := b.Append(nil, 3, make([]byte, 16))
	if f, e := b.ScanRange(); f != to || e != pending || b.Tail() != 0 {
		t.Fatalf("range [%d,%d) tail %d, want the empty [%d,%d) below the unpublished append, tail 0", f, e, b.Tail(), to, pending)
	}
	b.Published()
	n := 0
	from, to = b.ScanRange()
	if err := b.Scan(nil, from, to, func(r Record) bool { n++; return r.HSITIdx == 3 }); err != nil || n != 1 {
		t.Fatalf("second range held %d records (err %v), want only the new one", n, err)
	}
	b.Reset()
	if f, e := b.ScanRange(); f != 0 || e != 0 {
		t.Fatalf("range [%d,%d) after Reset", f, e)
	}
}

// TestScanValueAliasesRing pins the no-copy contract of Record.Value: it
// is the ring's own bytes, so it costs no allocation and shows a later
// store to the same NVM.
func TestScanValueAliasesRing(t *testing.T) {
	b, dev := newBuf(4096)
	for i := 0; i < 8; i++ {
		b.Append(nil, uint64(i), bytes.Repeat([]byte{'v'}, 100))
	}
	b.Published()
	var first Record
	scan := func() {
		b.Scan(nil, b.Tail(), b.Head(), func(r Record) bool {
			if r.HSITIdx == 0 {
				first = r
			}
			return true
		})
	}
	if allocs := testing.AllocsPerRun(10, scan); allocs != 0 {
		t.Fatalf("Scan allocated %.0f objects for 8 records", allocs)
	}
	dev.Store(nil, int(first.DevOff)+record.HeaderSize, []byte("X"))
	if first.Value[0] != 'X' || len(first.Value) != 100 || cap(first.Value) != 100 {
		t.Fatalf("Value is not a bounded view of the ring: %q... len %d cap %d", first.Value[:1], len(first.Value), cap(first.Value))
	}
}

// TestReleaseTimesTravelWithSpace: the virtual time a pass hands to Grant
// is what Room reports to the append that lands in the space the grant
// freed — a lap later, not before — and a stale grant's time is never
// paired with a newer grant's space.
func TestReleaseTimesTravelWithSpace(t *testing.T) {
	const size = 64 * 1024
	b, _ := newBuf(size)
	v := make([]byte, 1024-record.HeaderSize) // 1 KiB records: 64 to a lap, 4 segments each
	fill := func() (n int) {
		for {
			at, ok := b.Room(len(v))
			if !ok {
				return n
			}
			if _, _, err := b.Append(nil, 0, v); err != nil {
				t.Fatal(err)
			}
			if b.Head() <= size && at != 0 {
				t.Fatalf("first lap: space released at %d", at)
			}
			n++
		}
	}
	if n := fill(); n != 64 {
		t.Fatalf("first lap took %d records", n)
	}
	// Two passes, two grants; the second lands before the first is applied.
	b.Scanned(16*1024, 1_000)
	b.Grant(16 * 1024)
	b.Scanned(32*1024, 2_000)
	b.Grant(32 * 1024)
	b.Grant(8 * 1024) // a stale grant regresses neither the tail nor the time
	if _, ok := b.Room(len(v)); ok {
		t.Fatal("room before ApplyGrants")
	}
	b.ApplyGrants()
	if b.Tail() != 32*1024 {
		t.Fatalf("tail = %d", b.Tail())
	}
	for i := 0; i < 32; i++ {
		at, ok := b.Room(len(v))
		if !ok || at != 2_000 {
			t.Fatalf("record %d of lap 2: room %v, released at %d; the grants applied together carry the newer pass's time, 2000", i, ok, at)
		}
		if _, _, err := b.Append(nil, 0, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := b.Room(len(v)); ok {
		t.Fatal("room past the applied grants")
	}
	// The next grant covers the ring end and the wrap's first half again.
	b.Scanned(size+16*1024, 20_000)
	b.Grant(size + 16*1024)
	b.ApplyGrants()
	for i := 0; i < 48; i++ {
		at, ok := b.Room(len(v))
		if !ok || at != 20_000 {
			t.Fatalf("record %d after the wrap grant: room %v, released at %d", i, ok, at)
		}
		if _, _, err := b.Append(nil, 0, v); err != nil {
			t.Fatal(err)
		}
	}
	b.Reset()
	if at, ok := b.Room(len(v)); !ok || at != 0 {
		t.Fatalf("after Reset: room %v, released at %d", ok, at)
	}
}

// TestRoomMatchesAppend: Room says yes exactly when Append succeeds,
// padding at the ring end included, and leaves an oversized value to
// Append's own error.
func TestRoomMatchesAppend(t *testing.T) {
	b, _ := newBuf(256)
	sizes := []int{16, 48, 100, 16, 200, 8, 120}
	for i := 0; i < 200; i++ {
		n := sizes[i%len(sizes)]
		_, ok := b.Room(n)
		_, _, err := b.Append(nil, uint64(i), make([]byte, n))
		if ok != (err == nil) {
			t.Fatalf("append %d of %d bytes: Room %v, Append %v (head %d tail %d)", i, n, ok, err, b.Head(), b.Tail())
		}
		if err == ErrFull {
			b.Grant(b.Tail() + uint64(b.Used()/2/16*16))
			b.ApplyGrants()
		}
	}
	if _, ok := b.Room(1 << 20); !ok {
		t.Fatal("Room refused an oversized value instead of leaving it to Append")
	}
	if _, _, err := b.Append(nil, 0, make([]byte, 1<<20)); err == nil || err == ErrFull {
		t.Fatalf("oversized append: %v", err)
	}
}

// TestWaitWakeInterrupt covers the owner's sleep: a ticket taken before a
// wake-up never blocks, a sleeper wakes when the tail moves and when the
// scan owner calls Wake, and Interrupt ends every Wait until Reset.
func TestWaitWakeInterrupt(t *testing.T) {
	b, _ := newBuf(256)
	b.Append(nil, 0, make([]byte, 100))
	sleep := func(seq uint64) chan bool {
		done := make(chan bool, 1)
		go func() { done <- b.Wait(seq) }()
		return done
	}
	seq := b.WaitSeq()
	b.Wake()
	if !b.Wait(seq) {
		t.Fatal("Wait with a ticket older than the wake-up reported an interrupt")
	}
	done := sleep(b.WaitSeq())
	b.Grant(64)
	select {
	case <-done:
		t.Fatal("Grant alone woke the owner")
	case <-time.After(10 * time.Millisecond):
	}
	b.ApplyGrants()
	if !<-done {
		t.Fatal("a moved tail ended Wait with an interrupt")
	}
	done = sleep(b.WaitSeq())
	b.Interrupt()
	if <-done || b.Wait(b.WaitSeq()) {
		t.Fatal("Wait outlived Interrupt")
	}
	b.Reset()
	done = sleep(b.WaitSeq())
	b.Wake()
	if !<-done {
		t.Fatal("Reset did not lift the interrupt")
	}
}
