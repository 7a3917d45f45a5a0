package shard

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestMigrationFaultMatrix is the migration half of the CI fault gate
// (make fault-smoke): for each protocol stage, crash the migration
// source at exactly that point — via the migHook crash point — and
// prove the freeze→stream→flip protocol never double-owns or orphans a
// range. A crash before the flip aborts with the placement unchanged; a
// crash at or after the flip leaves the flip standing (the destination
// is complete by construction). Either way, after recovery (plus
// anti-entropy for the replicated cells) every acked write is present,
// every delete holds, and a retried migration completes.
func TestMigrationFaultMatrix(t *testing.T) {
	stages := []string{"catchup", "frozen", "streamed", "flipped"}
	for _, replicas := range []int{1, 2} {
		for _, stage := range stages {
			replicas, stage := replicas, stage
			t.Run(fmt.Sprintf("replicas=%d,stage=%s", replicas, stage), func(t *testing.T) {
				migrationFaultCell(t, replicas, stage)
			})
		}
	}
}

func migrationFaultCell(t *testing.T, replicas int, stage string) {
	const shards, seed = 3, 300
	s := rng(t, shards, replicas, [][]byte{key(100), key(200)}, nil)
	th := s.Thread(0)

	// Seed all three ranges, with some deletes so tombstones stream too.
	model := map[int]string{}
	for i := 0; i < seed; i++ {
		v := fmt.Sprintf("v%d", i)
		if err := th.Put(key(i), []byte(v)); err != nil {
			t.Fatal(err)
		}
		model[i] = v
	}
	for i := 0; i < seed; i += 17 {
		if err := th.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
		delete(model, i)
	}

	// Migrate range 1 ([100, 200)) away from its owner; crash the source
	// owner exactly once, at the requested protocol stage.
	const ri = 1
	src := s.RangeOwner(ri)
	dst := (src + 1) % shards
	epochBefore := s.PlacementEpoch()
	crashed := false
	s.migHook = func(st string) {
		if st == stage && !crashed {
			crashed = true
			s.CrashShard(src)
		}
	}
	err := s.MigrateRange(ri, dst)
	s.migHook = nil
	if !crashed {
		t.Fatalf("migration never reached stage %q", stage)
	}

	switch stage {
	case "catchup", "frozen":
		// Pre-flip crash: the migration must abort and the placement must
		// be exactly what it was — no orphaned range, no double owner.
		if err == nil {
			t.Fatalf("stage %s: migration succeeded with the source crashed", stage)
		}
		if got := s.RangeOwner(ri); got != src {
			t.Fatalf("stage %s: owner %d after abort, want %d", stage, got, src)
		}
		if got := s.PlacementEpoch(); got != epochBefore {
			t.Fatalf("stage %s: epoch %d after abort, want %d", stage, got, epochBefore)
		}
	case "streamed", "flipped":
		// The destination set already holds every record, so the flip
		// stands and the range has exactly one owner: the destination.
		if err != nil {
			t.Fatalf("stage %s: migration failed post-stream: %v", stage, err)
		}
		if got := s.RangeOwner(ri); got != dst {
			t.Fatalf("stage %s: owner %d after flip, want %d", stage, got, dst)
		}
		if got := s.PlacementEpoch(); got != epochBefore+1 {
			t.Fatalf("stage %s: epoch %d after flip, want %d", stage, got, epochBefore+1)
		}
		// Even before recovery, the migrated range serves from the
		// destination (replicated cells serve everything: R=2 survives one
		// down member in every set).
		for i := 100; i < 200; i++ {
			want, ok := model[i]
			v, gerr := th.Get(key(i))
			if ok && (gerr != nil || string(v) != want) {
				t.Fatalf("stage %s pre-recovery: key %d = %q, %v; want %q", stage, i, v, gerr, want)
			}
			if !ok && !errors.Is(gerr, core.ErrNotFound) {
				t.Fatalf("stage %s pre-recovery: deleted key %d: %v", stage, i, gerr)
			}
		}
	}

	// Recover the source; replicated cells must also re-converge.
	if _, rerr := s.RecoverShard(src); rerr != nil {
		t.Fatal(rerr)
	}
	if replicas > 1 {
		for i := 0; i < maxRepairPasses; i++ {
			if s.Repair().Applied() == 0 {
				break
			}
		}
		if st := s.ReplicaState(src); st != int(replicaUp) {
			t.Fatalf("source state %d after repair", st)
		}
		if cerr := s.ConvergenceCheck(); cerr != nil {
			t.Fatal(cerr)
		}
	}

	audit := func(when string) {
		t.Helper()
		for i := 0; i < seed; i++ {
			want, ok := model[i]
			v, gerr := th.Get(key(i))
			if ok && (gerr != nil || string(v) != want) {
				t.Fatalf("%s: key %d = %q, %v; want %q", when, i, v, gerr, want)
			}
			if !ok && !errors.Is(gerr, core.ErrNotFound) {
				t.Fatalf("%s: deleted key %d resurrected: %v", when, i, gerr)
			}
		}
		count := 0
		if serr := th.Scan(nil, 0, func(kv core.KV) bool {
			count++
			return true
		}); serr != nil {
			t.Fatalf("%s: scan: %v", when, serr)
		}
		if count != len(model) {
			t.Fatalf("%s: scan saw %d keys, model has %d (orphaned or double-owned range)", when, count, len(model))
		}
	}
	audit("post-recovery")

	// The store keeps migrating: an aborted cell retries the same move; a
	// flipped cell (whose source kept unpurged, unreachable copies) moves
	// the range straight back. Fresh writes ride along either way.
	for i := 120; i < 130; i++ {
		v := fmt.Sprintf("post%d", i)
		if perr := th.Put(key(i), []byte(v)); perr != nil {
			t.Fatal(perr)
		}
		model[i] = v
	}
	retryDst := dst
	if s.RangeOwner(ri) == dst {
		retryDst = src
	}
	if merr := s.MigrateRange(ri, retryDst); merr != nil {
		t.Fatalf("retry migration to %d: %v", retryDst, merr)
	}
	if got := s.RangeOwner(ri); got != retryDst {
		t.Fatalf("retry: owner %d, want %d", got, retryDst)
	}
	audit("post-retry")

	// A pre-flip crash aborts the first attempt and the retry completes;
	// after a post-flip crash both complete.
	aborts, ranges := int64(0), int64(2)
	if stage == "catchup" || stage == "frozen" {
		aborts, ranges = 1, 1
	}
	r := reg(t, s)
	if got := r.n("migrate.aborts"); got != aborts {
		t.Errorf("migrate.aborts = %d, want %d", got, aborts)
	}
	if got := r.n("migrate.ranges"); got != ranges {
		t.Errorf("migrate.ranges = %d, want %d", got, ranges)
	}
}

// TestMigrationDestMemberCrash: with Replicas > 1, a destination-set
// member crashing mid-stream does not block the migration — the member
// is skipped, the flip proceeds on the live members, and anti-entropy
// heals the skipped member after recovery under the placement-derived
// replica sets.
func TestMigrationDestMemberCrash(t *testing.T) {
	const shards, replicas = 3, 2
	s := rng(t, shards, replicas, [][]byte{key(100), key(200)}, nil)
	th := s.Thread(0)
	for i := 0; i < 300; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	const ri = 1
	src := s.RangeOwner(ri)
	dst := (src + 1) % shards
	victim := (dst + 1) % shards // second member of the destination set
	crashed := false
	s.migHook = func(st string) {
		if st == "catchup" && !crashed {
			crashed = true
			s.CrashShard(victim)
		}
	}
	err := s.MigrateRange(ri, dst)
	s.migHook = nil
	if err != nil {
		t.Fatalf("migration with one dest member down: %v", err)
	}
	if got := s.RangeOwner(ri); got != dst {
		t.Fatalf("owner %d, want %d", got, dst)
	}
	if _, err := s.RecoverShard(victim); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxRepairPasses; i++ {
		if s.Repair().Applied() == 0 {
			break
		}
	}
	if err := s.ConvergenceCheck(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		v, err := th.Get(key(i))
		if err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("key %d = %q, %v", i, v, err)
		}
	}
}
