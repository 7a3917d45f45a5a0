package shard

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// rng opens a range-placement store (auto-repair off so tests drive
// repair deterministically, like repl()).
func rng(t *testing.T, shards, replicas int, splits [][]byte, mutate func(*core.Options)) *Store {
	t.Helper()
	return small(t, shards, func(o *core.Options) {
		o.Placement = "range"
		o.SplitKeys = splits
		o.Replicas = replicas
		o.DisableAutoRepair = true
		if mutate != nil {
			mutate(o)
		}
	})
}

// quartiles returns split keys dividing [0, n) into parts equal ranges.
func quartiles(n, parts int) [][]byte {
	var out [][]byte
	for i := 1; i < parts; i++ {
		out = append(out, key(i*n/parts))
	}
	return out
}

func TestRangePlacementRoundTrip(t *testing.T) {
	const n = 400
	s := rng(t, 4, 1, quartiles(n, 4), nil)
	th := s.Thread(0)
	for i := 0; i < n; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		v, err := th.Get(key(i))
		if err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("Get(%d) = %q, %v", i, v, err)
		}
	}
	// Every key lives on exactly one shard — boundary keys included.
	if got := s.Len(); got != n {
		t.Fatalf("Len = %d, want %d (each key on exactly one shard)", got, n)
	}
	// Keys land on the range owner the table reports.
	for i := 0; i < n; i++ {
		j := s.ShardOf(key(i))
		if v, err := s.Shard(j).Thread(0).Get(key(i)); err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("key %d not on its owner %d: %v", i, j, err)
		}
	}
	if err := th.Delete(key(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Get(key(0)); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("Get after Delete = %v", err)
	}
	if err := th.Delete(key(0)); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("double Delete = %v, want ErrNotFound", err)
	}
}

func TestRangeRoutingBoundaries(t *testing.T) {
	s := rng(t, 3, 1, [][]byte{[]byte("b"), []byte("c")}, nil)
	if got := s.Ranges(); got != 3 {
		t.Fatalf("Ranges = %d, want 3", got)
	}
	// A key equal to a split belongs to the right-hand range (inclusive
	// lower bounds), so every key has exactly one owner.
	cases := []struct {
		key  string
		want int
	}{
		{"a", 0}, {"azzz", 0},
		{"b", 1}, {"bzzz", 1},
		{"c", 2}, {"zzzz", 2},
	}
	for _, c := range cases {
		if got := s.ShardOf([]byte(c.key)); got != c.want {
			t.Fatalf("ShardOf(%q) = %d, want %d", c.key, got, c.want)
		}
	}
	if lo, hi := s.RangeBounds(0); lo != nil || string(hi) != "b" {
		t.Fatalf("RangeBounds(0) = %q, %q", lo, hi)
	}
	if lo, hi := s.RangeBounds(2); string(lo) != "c" || hi != nil {
		t.Fatalf("RangeBounds(2) = %q, %q", lo, hi)
	}
	if got := s.PlacementMode(); got != "range" {
		t.Fatalf("PlacementMode = %q", got)
	}
	if got := s.PlacementEpoch(); got != 1 {
		t.Fatalf("PlacementEpoch = %d, want 1", got)
	}
}

func TestRangeZeroSplitsMatchesHash(t *testing.T) {
	// With no splits the single range is hash-owned: routing must equal
	// hash placement key for key (the "both placement modes" bridge).
	s := rng(t, 4, 1, nil, nil)
	if got := s.Ranges(); got != 1 {
		t.Fatalf("Ranges = %d, want 1", got)
	}
	if got := s.RangeOwner(0); got != hashOwned {
		t.Fatalf("RangeOwner(0) = %d, want hashOwned", got)
	}
	for i := 0; i < 500; i++ {
		if got, want := s.ShardOf(key(i)), jump(fnv64a(key(i)), 4); got != want {
			t.Fatalf("ShardOf(%d) = %d, want hash %d", i, got, want)
		}
	}
	// The hash-owned range still serves scans (bounded k-way merge).
	th := s.Thread(0)
	for i := 0; i < 100; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	if err := th.Scan(key(0), 0, func(kv core.KV) bool { got++; return true }); err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Fatalf("scan over hash-owned range saw %d keys, want 100", got)
	}

	// On one shard the hash-owned range is read the way a hash store reads
	// it, at the same virtual cost: the shard's own scan, each row looked
	// up once.
	scanCost := func(s *Store) int64 {
		th := s.Thread(0)
		for i := 0; i < 200; i++ {
			if err := th.Put(key(i), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		t0, rows := th.Clk.Now(), 0
		if err := th.Scan(key(100), 50, func(core.KV) bool { rows++; return true }); err != nil || rows != 50 {
			t.Fatalf("scan of 50 rows returned %d: %v", rows, err)
		}
		return th.Clk.Now() - t0
	}
	if r, h := scanCost(rng(t, 1, 1, nil, nil)), scanCost(small(t, 1, nil)); r != h {
		t.Fatalf("a 50-row scan costs %d virtual ns on a one-shard range store, %d on a hash store", r, h)
	}
}

func TestRangeScanOrderAndBounds(t *testing.T) {
	const n = 300
	s := rng(t, 3, 1, quartiles(n, 3), nil)
	th := s.Thread(0)
	for i := 0; i < n; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Full scan: global key order, every key once.
	var keys [][]byte
	if err := th.Scan(nil, 0, func(kv core.KV) bool {
		keys = append(keys, append([]byte(nil), kv.Key...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Fatalf("full scan saw %d keys, want %d", len(keys), n)
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			t.Fatalf("scan out of order at %d: %q >= %q", i, keys[i-1], keys[i])
		}
	}
	// Bounded scan crossing a range boundary: starts mid-range, spans
	// into the next owner, respects count.
	start := n/3 - 5
	var got []int
	if err := th.Scan(key(start), 10, func(kv core.KV) bool {
		var i int
		fmt.Sscanf(string(kv.Key), "user%d", &i)
		got = append(got, i)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != start || got[9] != start+9 {
		t.Fatalf("boundary-crossing scan = %v", got)
	}
	// Early stop.
	seen := 0
	if err := th.Scan(nil, 0, func(kv core.KV) bool { seen++; return seen < 7 }); err != nil {
		t.Fatal(err)
	}
	if seen != 7 {
		t.Fatalf("early-stop scan saw %d", seen)
	}
}

func TestRangeScanEmptyRange(t *testing.T) {
	// Ranges [0,100) and [200,300) populated; [100,200) empty. Scans
	// spanning the empty middle range skip it without emitting or
	// erroring.
	s := rng(t, 3, 1, [][]byte{key(100), key(200)}, nil)
	th := s.Thread(0)
	for i := 0; i < 100; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 200; i < 300; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []int
	if err := th.Scan(key(50), 100, func(kv core.KV) bool {
		var i int
		fmt.Sscanf(string(kv.Key), "user%d", &i)
		got = append(got, i)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 || got[0] != 50 || got[49] != 99 || got[50] != 200 || got[99] != 249 {
		t.Fatalf("scan across empty range: len=%d first=%v", len(got), got[:min(4, len(got))])
	}
	// A scan starting inside the empty range skips straight to the next
	// populated range (Scan's contract is keys >= start).
	got = got[:0]
	if err := th.Scan(key(120), 10, func(kv core.KV) bool {
		var i int
		fmt.Sscanf(string(kv.Key), "user%d", &i)
		got = append(got, i)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != 200 || got[9] != 209 {
		t.Fatalf("scan from empty range = %v", got)
	}
}

func TestSplitRangeOnline(t *testing.T) {
	const n = 200
	s := rng(t, 2, 1, [][]byte{key(n / 2)}, nil)
	th := s.Thread(0)
	for i := 0; i < n; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	epoch := s.PlacementEpoch()
	if err := s.SplitRange(key(n / 4)); err != nil {
		t.Fatal(err)
	}
	if got := s.Ranges(); got != 3 {
		t.Fatalf("Ranges after split = %d", got)
	}
	wantEpoch(t, s, epoch+1)
	// Both halves keep the owner: no data moved, everything readable.
	if s.RangeOwner(0) != s.RangeOwner(1) {
		t.Fatalf("split halves have different owners: %d vs %d", s.RangeOwner(0), s.RangeOwner(1))
	}
	for i := 0; i < n; i++ {
		if _, err := th.Get(key(i)); err != nil {
			t.Fatalf("Get(%d) after split: %v", i, err)
		}
	}
	// Splitting on an existing boundary is a no-op.
	if err := s.SplitRange(key(n / 4)); err != nil {
		t.Fatal(err)
	}
	if got := s.Ranges(); got != 3 {
		t.Fatalf("duplicate split changed Ranges to %d", got)
	}
	if got := reg(t, s).n("migrate.splits"); got != 1 {
		t.Fatalf("migrate.splits = %d after one split and a no-op, want 1", got)
	}
}

// wantEpoch checks the placement epoch, as PlacementEpoch reports it and as
// shard.placement_epoch exports it.
func wantEpoch(t *testing.T, s *Store, want uint64) {
	t.Helper()
	if got := s.PlacementEpoch(); got != want {
		t.Fatalf("epoch = %d, want %d", got, want)
	}
	if got := reg(t, s).n("shard.placement_epoch"); got != int64(want) {
		t.Fatalf("shard.placement_epoch = %d, want %d", got, want)
	}
}

// migration is the migrate.* series moved between two readings.
type migration struct{ ranges, keys, tombs, purged int64 }

func migrated(before, after reading) migration {
	d := func(name string) int64 { return after.n(name) - before.n(name) }
	return migration{d("migrate.ranges"), d("migrate.keys_streamed"), d("migrate.tombstones_streamed"), d("migrate.purged_keys")}
}

func TestMigrateRangeMovesData(t *testing.T) {
	const n = 300
	s := rng(t, 3, 1, quartiles(n, 3), nil)
	th := s.Thread(0)
	for i := 0; i < n; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	src := s.RangeOwner(1)
	dst := (src + 1) % 3
	before := s.Shard(dst).Len()
	epoch := s.PlacementEpoch()
	r0 := reg(t, s)
	if err := s.MigrateRange(1, dst); err != nil {
		t.Fatal(err)
	}
	if got := s.RangeOwner(1); got != dst {
		t.Fatalf("RangeOwner(1) = %d, want %d", got, dst)
	}
	wantEpoch(t, s, epoch+1)
	// The range's n/3 keys streamed once (the freeze's delta pass found
	// nothing new) and the source dropped its copies.
	if got, want := migrated(r0, reg(t, s)), (migration{1, n / 3, 0, n / 3}); got != want {
		t.Fatalf("migration moved %+v, want %+v", got, want)
	}
	// Destination gained the range, source was purged: store-wide key
	// count is unchanged (no orphan, no double-own).
	if got := s.Len(); got != n {
		t.Fatalf("Len after migration = %d, want %d", got, n)
	}
	if got := s.Shard(dst).Len(); got <= before {
		t.Fatalf("destination shard did not grow: %d -> %d", before, got)
	}
	for i := 0; i < n; i++ {
		v, err := th.Get(key(i))
		if err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("Get(%d) after migration = %v", i, err)
		}
	}
	// Migrating to the current owner is a no-op.
	if err := s.MigrateRange(1, dst); err != nil {
		t.Fatal(err)
	}
	// Deleted keys stay deleted after migrating the range again — the
	// tombstone streams with the range.
	if err := th.Delete(key(n / 3)); err != nil {
		t.Fatal(err)
	}
	r1 := reg(t, s)
	if err := s.MigrateRange(1, src); err != nil {
		t.Fatal(err)
	}
	wantEpoch(t, s, epoch+2)
	if got, want := migrated(r1, reg(t, s)), (migration{1, n/3 - 1, 1, n/3 - 1}); got != want {
		t.Fatalf("migration back moved %+v, want %+v", got, want)
	}
	if _, err := th.Get(key(n / 3)); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("deleted key resurrected after migration: %v", err)
	}
}

// parkOnFreeze migrates range 1 of a 3-shard range store holding keys
// [0, n) and, once the freeze is in, puts key(n/2) from router thread 1;
// held runs inside the freeze after the write has parked
// (migrate.frozen_waits moved). It returns the destination shard.
func parkOnFreeze(t *testing.T, s *Store, n int, held func()) int {
	t.Helper()
	th := s.Thread(0)
	for i := 0; i < n; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	dst := (s.RangeOwner(1) + 1) % 3
	parked := make(chan error, 1)
	s.migHook = func(stage string) {
		if stage != "frozen" {
			return
		}
		go func() { parked <- s.Thread(1).Put(key(n/2), []byte("parked")) }()
		for deadline := time.Now().Add(5 * time.Second); reg(t, s).n("migrate.frozen_waits") == 0; runtime.Gosched() {
			select {
			case err := <-parked:
				t.Fatalf("a write into the frozen range returned before the flip: %v", err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatal("migrate.frozen_waits still 0 with a write into the frozen range outstanding")
			}
		}
		held()
	}
	err := s.MigrateRange(1, dst)
	s.migHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if err := <-parked; err != nil {
		t.Fatalf("parked write: %v", err)
	}
	return dst
}

// A write into a range whose migration is frozen parks until the flip —
// migrate.frozen_waits counts it once — and then lands on the destination.
func TestWriteParksOnFrozenWindow(t *testing.T) {
	const n = 300
	s := rng(t, 3, 1, quartiles(n, 3), nil)
	dst := parkOnFreeze(t, s, n, func() {})
	if got := reg(t, s).n("migrate.frozen_waits"); got != 1 {
		t.Fatalf("migrate.frozen_waits = %d, want 1", got)
	}
	if v, err := s.Shard(dst).Thread(0).Get(key(n / 2)); err != nil || string(v) != "parked" {
		t.Fatalf("destination holds %q, %v; want the parked write", v, err)
	}
}

// A parked writer sleeps: held open for 100 ms, the freeze finds the
// writer's goroutine blocked on the window every time it looks, never
// runnable, so a long freeze costs its parked writers no CPU.
func TestFrozenWriterSleeps(t *testing.T) {
	const n = 300
	s := rng(t, 3, 1, quartiles(n, 3), nil)
	var states []string
	parkOnFreeze(t, s, n, func() {
		for i := 0; i < 20; i++ {
			time.Sleep(5 * time.Millisecond)
			states = append(states, goroutineState(t, "shard.(*Store).placeWrite("))
		}
	})
	for i, st := range states {
		if st != "chan receive" {
			t.Fatalf("look %d of %d into the freeze: the parked writer's goroutine is %q, want blocked on the window (chan receive)", i+1, len(states), st)
		}
	}
}

// goroutineState returns the scheduler state runtime.Stack prints for the
// one goroutine whose stack has frame in it: "runnable", "chan receive",
// and so on.
func goroutineState(t *testing.T, frame string) string {
	t.Helper()
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, frame) { // "goroutine 7 [chan receive]:\n..."
			st, _, _ := strings.Cut(g[strings.Index(g, "[")+1:], "]")
			st, _, _ = strings.Cut(st, ",") // ", 2 minutes"
			return st
		}
	}
	t.Fatalf("no goroutine has %s on its stack", frame)
	return ""
}

// The freeze's delta pass reads only the records a destination lacks:
// with nothing written since the catch-up pass, it reads no value from
// the source, while the catch-up reads every value of the range once.
func TestMigrationDeltaReadsOnlyTheDelta(t *testing.T) {
	const n = 400
	s := rng(t, 2, 1, quartiles(n, 2), nil)
	th := s.Thread(0)
	for i := 0; i < n; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	src := s.RangeOwner(0)
	gets := map[string]int64{}
	s.migHook = func(stage string) { gets[stage] = reg(t, s.Shard(src)).n("core.async_ops", "op", "get") }
	err := s.MigrateRange(0, 1-src)
	s.migHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if got := gets["frozen"] - gets["catchup"]; got != n/2 {
		t.Fatalf("catch-up read %d source values, want %d", got, n/2)
	}
	if got := gets["streamed"] - gets["frozen"]; got != 0 {
		t.Fatalf("delta pass read %d source values with nothing changed since catch-up, want 0", got)
	}
}

func TestRebalanceRangesFromHash(t *testing.T) {
	// Zero splits (hash-equivalent routing) → RebalanceRanges learns
	// boundaries from live keys and migrates every range to an owner:
	// the online hash→range conversion.
	const n = 400
	s := rng(t, 4, 1, nil, nil)
	th := s.Thread(0)
	for i := 0; i < n; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RebalanceRanges(); err != nil {
		t.Fatal(err)
	}
	if got := s.Ranges(); got != 4 {
		t.Fatalf("Ranges after rebalance = %d, want 4", got)
	}
	for r := 0; r < s.Ranges(); r++ {
		if s.RangeOwner(r) == hashOwned {
			t.Fatalf("range %d still hash-owned after rebalance", r)
		}
	}
	if got := s.Len(); got != n {
		t.Fatalf("Len after rebalance = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		v, err := th.Get(key(i))
		if err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("Get(%d) after rebalance = %v", i, err)
		}
	}
	// A narrow scan now touches only the owning shard.
	pre := reg(t, s).n("core.ops", "op", "scan") // summed over the shards
	if err := th.Scan(key(10), 5, func(core.KV) bool { return true }); err != nil {
		t.Fatal(err)
	}
	post := reg(t, s).n("core.ops", "op", "scan")
	if post-pre != 1 {
		t.Fatalf("narrow scan issued %d shard scans, want 1", post-pre)
	}
}

func TestScanDuringDualWindow(t *testing.T) {
	// A scan and reads spanning a mid-flight migration observe the
	// dual-read window correctly: migrated values are served from the
	// destination, a delete landing post-flip does not resurrect from
	// the unpurged source, and truly missing keys miss.
	const n = 300
	s := rng(t, 3, 1, quartiles(n, 3), nil)
	th := s.Thread(0)
	for i := 0; i < n; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	dst := (s.RangeOwner(1) + 1) % 3
	checked := false
	s.migHook = func(stage string) {
		if stage != "flipped" {
			return
		}
		checked = true
		probe := s.Thread(1)
		// Scan spanning the migrating range during the dual window.
		seen := 0
		if err := probe.Scan(nil, 0, func(core.KV) bool { seen++; return true }); err != nil {
			t.Errorf("scan during dual window: %v", err)
		}
		if seen != n {
			t.Errorf("scan during dual window saw %d keys, want %d", seen, n)
		}
		// Migrated value served (from the destination).
		mid := n/3 + 5
		if v, err := probe.Get(key(mid)); err != nil || !bytes.Equal(v, value(mid)) {
			t.Errorf("Get during dual window = %v", err)
		}
		// A post-flip delete must not resurrect from the source: the
		// destination's tombstone record blocks the dual fallback.
		if err := probe.Delete(key(mid)); err != nil {
			t.Errorf("Delete during dual window: %v", err)
		}
		if _, err := probe.Get(key(mid)); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("deleted key visible during dual window: %v", err)
		}
		// A key that never existed misses through the fallback path too.
		if _, err := probe.Get([]byte("user99999999")); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("missing key during dual window: %v", err)
		}
		// One that never existed inside the window asks the source once,
		// sync and async alike.
		inside := append(key(mid+2), 'x')
		for _, get := range []func() error{
			func() error { _, err := probe.Get(inside); return err },
			func() error { _, err := probe.GetAsync(inside).Value(); return err },
		} {
			before, _ := s.reg.Snapshot().Get("migrate.dual_reads", nil)
			if err := get(); !errors.Is(err, core.ErrNotFound) {
				t.Errorf("missing key inside the dual window: %v", err)
			}
			after, _ := s.reg.Snapshot().Get("migrate.dual_reads", nil)
			if n := after.Value - before.Value; n != 1 {
				t.Errorf("missing key inside the dual window: %v dual reads, want 1", n)
			}
		}
		// Async read of a migrated key during the window.
		if v, err := probe.GetAsync(key(mid + 1)).Value(); err != nil || !bytes.Equal(v, value(mid+1)) {
			t.Errorf("GetAsync during dual window = %v", err)
		}
	}
	if err := s.MigrateRange(1, dst); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("flipped hook never ran")
	}
	if _, err := th.Get(key(n/3 + 5)); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("dual-window delete lost after settle: %v", err)
	}
}

func TestRangeScanReplicatedAvailability(t *testing.T) {
	// Replicas > 1 range scans fail with errNoReplica only when a whole
	// replica set is down; a single down member routes to a live one.
	const n = 300
	s := rng(t, 4, 2, quartiles(n, 4), nil)
	th := s.Thread(0)
	for i := 0; i < n; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	owner := s.RangeOwner(1) // set {owner, owner+1}
	s.CrashShard(owner)
	seen := 0
	if err := th.Scan(nil, 0, func(core.KV) bool { seen++; return true }); err != nil {
		t.Fatalf("scan with one set member down: %v", err)
	}
	if seen != n {
		t.Fatalf("scan with one member down saw %d keys, want %d", seen, n)
	}
	// The owner back but repairing (auto-repair is off, so it stays so),
	// its successor down: the set's only read candidate is the repairing
	// member, and it must serve the range rather than fail the scan.
	if _, err := s.RecoverShard(owner); err != nil {
		t.Fatal(err)
	}
	s.CrashShard((owner + 1) % 4)
	lo1, hi1 := s.RangeBounds(1)
	seen = 0
	if err := th.Scan(lo1, 0, func(kv core.KV) bool {
		if bytes.Compare(kv.Key, hi1) >= 0 {
			return false
		}
		seen++
		return true
	}); err != nil {
		t.Fatalf("scan of a range whose set is down to its repairing member: %v", err)
	}
	if seen != n/4 {
		t.Fatalf("the repairing member served %d keys of range 1, want %d", seen, n/4)
	}
	// Down the whole set: scans touching range 1 fail, scans confined
	// to other ranges still work.
	s.CrashShard(owner)
	if err := th.Scan(nil, 0, func(core.KV) bool { return true }); !errors.Is(err, errNoReplica) {
		t.Fatalf("scan over dead set = %v, want errNoReplica", err)
	}
	// Range 3's set must still be live for a confined scan to pass
	// (sets overlap on a 4-ring with R=2 only at distance 1).
	lo, _ := s.RangeBounds(3)
	own3 := s.RangeOwner(3)
	if own3 != owner && own3 != (owner+1)%4 && (own3+1)%4 != owner {
		count := 0
		if err := th.Scan(lo, 10, func(core.KV) bool { count++; return true }); err != nil {
			t.Fatalf("confined scan over live set: %v", err)
		}
	}
}

func TestPlacementValidation(t *testing.T) {
	if _, err := core.Open(core.Options{NumThreads: 1, NumSSDs: 1, PWBBytesPerThread: 1 << 20,
		HSITCapacity: 1 << 10, SSDBytes: 1 << 20, ChunkSize: 16 << 10, Placement: "range"}); err == nil {
		t.Fatal("core.Open must reject Placement=range")
	}
	if _, err := Open(core.Options{Shards: 2, Placement: "zorp"}); err == nil {
		t.Fatal("unknown placement must be rejected")
	}
	s := small(t, 2, nil) // hash mode
	if err := s.SplitRange([]byte("k")); !errors.Is(err, errHashPlacement) {
		t.Fatalf("SplitRange on hash store = %v", err)
	}
	if err := s.MigrateRange(0, 1); !errors.Is(err, errHashPlacement) {
		t.Fatalf("MigrateRange on hash store = %v", err)
	}
	if err := s.RebalanceRanges(); !errors.Is(err, errHashPlacement) {
		t.Fatalf("RebalanceRanges on hash store = %v", err)
	}
	if got := s.PlacementMode(); got != "hash" {
		t.Fatalf("PlacementMode = %q", got)
	}
	r := rng(t, 2, 1, nil, nil)
	if err := r.MigrateRange(5, 0); err == nil {
		t.Fatal("out-of-range range index must be rejected")
	}
	if err := r.MigrateRange(0, 9); err == nil {
		t.Fatal("out-of-range destination must be rejected")
	}
	if err := r.SplitRange(nil); err == nil {
		t.Fatal("empty split key must be rejected")
	}
}

func TestRangeBatchAndAsync(t *testing.T) {
	const n = 240
	s := rng(t, 3, 1, quartiles(n, 3), nil)
	th := s.Thread(0)
	var kvs []core.KV
	for i := 0; i < n; i++ {
		kvs = append(kvs, core.KV{Key: key(i), Value: value(i)})
	}
	if err := th.PutBatch(kvs); err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(i)
	}
	vals, err := th.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if !bytes.Equal(v, value(i)) {
			t.Fatalf("MultiGet[%d] = %q", i, v)
		}
	}
	// Async round trip + async delete.
	for i := 0; i < 50; i++ {
		if err := th.PutAsync(key(i), value(i+1)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	th.Flush()
	for i := 0; i < 50; i++ {
		v, err := th.GetAsync(key(i)).Value()
		if err != nil || !bytes.Equal(v, value(i+1)) {
			t.Fatalf("GetAsync(%d) = %v", i, err)
		}
	}
	if err := th.DeleteAsync(key(0)).Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Get(key(0)); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("Get after DeleteAsync = %v", err)
	}
	if got := s.Len(); got != n-1 {
		t.Fatalf("Len = %d, want %d", got, n-1)
	}
}
