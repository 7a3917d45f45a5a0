package shard

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// repl opens a replicated store with auto-repair off so tests drive
// (and count) repair passes deterministically.
func repl(t *testing.T, shards, replicas int, mutate func(*core.Options)) *Store {
	t.Helper()
	return small(t, shards, func(o *core.Options) {
		o.Replicas = replicas
		o.DisableAutoRepair = true
		if mutate != nil {
			mutate(o)
		}
	})
}

func TestReplicatedRoundTrip(t *testing.T) {
	s := repl(t, 3, 2, nil)
	th := s.Thread(0)
	const n = 300
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
	// Every key lives on exactly Replicas shards.
	if got := s.Len(); got != n*2 {
		t.Fatalf("Len = %d, want %d (each key on 2 replicas)", got, n*2)
	}
	// Deletes propagate to all replicas.
	if err := th.Delete(key(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Get(key(0)); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("Get after Delete = %v", err)
	}
	if err := th.Delete(key(0)); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("double Delete = %v, want ErrNotFound", err)
	}
	if err := s.ConvergenceCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaSetPlacement(t *testing.T) {
	s := repl(t, 4, 3, nil)
	for i := 0; i < 500; i++ {
		set := s.route(key(i), nil)
		if len(set) != 3 {
			t.Fatalf("replica set size = %d", len(set))
		}
		if set[0] != s.ShardOf(key(i)) {
			t.Fatalf("primary %d != ShardOf %d", set[0], s.ShardOf(key(i)))
		}
		seen := map[int]bool{}
		for _, j := range set {
			if seen[j] {
				t.Fatalf("duplicate shard %d in replica set %v", j, set)
			}
			seen[j] = true
		}
	}
	if _, err := Open(core.Options{Shards: 2, Replicas: 3}); err == nil {
		t.Fatal("Replicas > Shards must be rejected")
	}
	if _, err := core.Open(core.Options{Replicas: 2}); err == nil {
		t.Fatal("core.Open must reject Replicas > 1")
	}
}

// wantState checks shard j's replica state, as ReplicaState reports it
// and as its shard.replica_state series exports it.
func wantState(t *testing.T, s *Store, j int, want int32, when string) {
	t.Helper()
	if st := s.ReplicaState(j); st != int(want) {
		t.Fatalf("state %s = %d, want %d", when, st, want)
	}
	if got := reg(t, s).n("shard.replica_state", "shard", strconv.Itoa(j)); got != int64(want) {
		t.Fatalf("shard.replica_state{shard=%d} %s = %d, want %d", j, when, got, want)
	}
}

// Crash one replica: reads and writes keep working off the survivors;
// recover + bounded repair passes converge the restarted replica; the
// full keyspace digest agrees afterwards, and the repair.* series count
// what the passes reported.
func TestFailoverAndRepairConverges(t *testing.T) {
	s := repl(t, 3, 2, nil)
	th := s.Thread(0)
	const n = 400
	for i := 0; i < n; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := reg(t, s)
	victim := 1
	wantState(t, s, victim, replicaUp, "before the crash")
	s.CrashShard(victim)
	wantState(t, s, victim, replicaDown, "after crash")
	// Every key stays readable (fallback for keys whose primary died).
	for i := 0; i < n; i++ {
		v, err := th.Get(key(i))
		if err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("Get(%d) with shard %d down = %q, %v", i, victim, v, err)
		}
	}
	// Writes land on the survivors; some delete traffic too.
	for i := n; i < n+200; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if err := th.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.RecoverShard(victim); err != nil {
		t.Fatal(err)
	}
	wantState(t, s, victim, replicaRepairing, "after recover")
	// Anti-entropy must converge within a small bounded number of
	// passes when writes are quiesced: one pass pulls everything, the
	// next verifies emptiness.
	var sum RepairStats
	passes := 0
	for ; passes < 5; passes++ {
		st := s.RepairShard(victim)
		sum.add(st)
		if st.Applied() == 0 {
			break
		}
	}
	if passes >= 5 {
		t.Fatalf("repair did not converge within %d passes", passes)
	}
	st := s.Repair()
	if st.Applied() != 0 {
		t.Fatalf("full repair still applied %+v after convergence", st)
	}
	sum.add(st)
	wantState(t, s, victim, replicaUp, "after converged repair")
	after := reg(t, s)
	for name, want := range map[string]int{
		"repair.passes":               sum.Passes,
		"repair.keys_pulled":          sum.KeysPulled,
		"repair.tombstones_pulled":    sum.TombstonesPulled,
		"repair.tombstones_discarded": sum.TombstonesDiscarded,
		"repair.converged":            1, // the victim, once
	} {
		if got := after.n(name) - before.n(name); got != int64(want) {
			t.Errorf("%s moved %d, want %d (passes reported %+v)", name, got, want, sum)
		}
	}
	if sum.KeysPulled == 0 || sum.TombstonesPulled == 0 {
		t.Errorf("repair pulled %+v: the writes and deletes made while the victim was down", sum)
	}
	if err := s.ConvergenceCheck(); err != nil {
		t.Fatal(err)
	}
	// Deleted keys stay deleted on the repaired replica (tombstones
	// propagated), live keys all readable.
	for i := 0; i < 50; i++ {
		if _, err := th.Get(key(i)); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("deleted key %d resurrected after repair: %v", i, err)
		}
	}
	for i := 50; i < n+200; i++ {
		v, err := th.Get(key(i))
		if err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("Get(%d) after repair = %q, %v", i, v, err)
		}
	}
}

func TestTombstoneDiscardAfterGrace(t *testing.T) {
	s := repl(t, 2, 2, nil)
	th := s.Thread(0)
	for i := 0; i < 20; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := th.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	tombs := 0
	for j := 0; j < s.NumShards(); j++ {
		tombs += s.Shard(j).TombstoneCount()
	}
	if tombs == 0 {
		t.Fatal("no tombstones recorded")
	}
	// Advance the stamp past the grace window with one batch (it draws a
	// stamp per entry), then a full repair with all replicas up discards
	// them.
	kvs := make([]core.KV, tombstoneGraceWrites+100)
	for i := range kvs {
		kvs[i] = core.KV{Key: key(100 + i), Value: []byte("v")}
	}
	if err := th.PutBatch(kvs); err != nil {
		t.Fatal(err)
	}
	st := s.Repair()
	if st.TombstonesDiscarded == 0 {
		t.Fatalf("no tombstones discarded: %+v", st)
	}
	if got := reg(t, s).n("repair.tombstones_discarded"); got != int64(st.TombstonesDiscarded) {
		t.Fatalf("repair.tombstones_discarded = %d, the pass discarded %d", got, st.TombstonesDiscarded)
	}
	tombs = 0
	for j := 0; j < s.NumShards(); j++ {
		tombs += s.Shard(j).TombstoneCount()
	}
	if tombs != 0 {
		t.Fatalf("%d tombstones survive past grace", tombs)
	}
	if err := s.ConvergenceCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicatedBatchAndMultiGet(t *testing.T) {
	s := repl(t, 3, 2, nil)
	th := s.Thread(0)
	const n = 256
	kvs := make([]core.KV, n)
	keys := make([][]byte, n)
	for i := range kvs {
		kvs[i] = core.KV{Key: key(i), Value: value(i)}
		keys[i] = key(i)
	}
	if err := th.PutBatch(kvs); err != nil {
		t.Fatal(err)
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
	// Batch with one replica down still acknowledges everything, and
	// MultiGet reroutes to survivors.
	s.CrashShard(2)
	if err := th.PutBatch(kvs); err != nil {
		t.Fatal(err)
	}
	vals, err = th.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	miss := 0
	for i, v := range vals {
		if !bytes.Equal(v, value(i)) {
			miss++
		}
	}
	if miss != 0 {
		t.Fatalf("%d keys unreadable with one replica down", miss)
	}
	if _, err := s.RecoverShard(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if s.Repair().Applied() == 0 {
			break
		}
	}
	if err := s.ConvergenceCheck(); err != nil {
		t.Fatal(err)
	}
	// Duplicate keys in a batch: the later entry wins (stamps are drawn
	// in input order).
	dup := []core.KV{
		{Key: key(0), Value: []byte("first")},
		{Key: key(0), Value: []byte("second")},
	}
	if err := th.PutBatch(dup); err != nil {
		t.Fatal(err)
	}
	if v, _ := th.Get(key(0)); !bytes.Equal(v, []byte("second")) {
		t.Fatalf("duplicate-key batch: got %q, want \"second\"", v)
	}
}

// Replicated scans dedupe replica copies and survive a downed shard.
func TestReplicatedScanDedupes(t *testing.T) {
	s := repl(t, 3, 2, nil)
	th := s.Thread(0)
	const n = 120
	for i := 0; i < n; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	collect := func() []string {
		var got []string
		if err := th.Scan([]byte("user"), 0, func(kv core.KV) bool {
			got = append(got, string(kv.Key))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	got := collect()
	if len(got) != n {
		t.Fatalf("scan returned %d keys, want %d (dedupe across replicas)", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("scan out of order at %d: %q >= %q", i, got[i-1], got[i])
		}
	}
	s.CrashShard(0)
	got = collect()
	if len(got) != n {
		t.Fatalf("scan with shard 0 down returned %d keys, want %d", len(got), n)
	}
}

// Async replicated paths: joined put/delete handles and chained get
// failover.
func TestReplicatedAsync(t *testing.T) {
	s := repl(t, 3, 2, nil)
	th := s.Thread(0)
	const n = 200
	hs := make([]*core.Handle, 0, n)
	for i := 0; i < n; i++ {
		hs = append(hs, th.PutAsync(key(i), value(i)))
	}
	for i, h := range hs {
		if err := h.Wait(); err != nil {
			t.Fatalf("async put %d: %v", i, err)
		}
	}
	s.CrashShard(1)
	for i := 0; i < n; i++ {
		v, err := th.GetAsync(key(i)).Value()
		if err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("GetAsync(%d) with shard down = %q, %v", i, v, err)
		}
	}
	// Async writes with a replica down still ack on the survivor.
	for i := n; i < n+50; i++ {
		if err := th.PutAsync(key(i), value(i)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := th.DeleteAsync(key(0)).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := th.DeleteAsync(key(0)).Wait(); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("double async delete = %v", err)
	}
	if _, err := s.RecoverShard(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if s.Repair().Applied() == 0 {
			break
		}
	}
	if err := s.ConvergenceCheck(); err != nil {
		t.Fatal(err)
	}
}

// routerLevel is s as the model harness drives it, client c on router
// thread c. With one replica a burst's handles are the shards' own, and
// the harness releases them.
func routerLevel(s *Store) model.Level[core.KV, *core.Handle] {
	return model.Level[core.KV, *core.Handle]{Name: "router", NotFound: core.ErrNotFound, Reorders: s.Replicas() > 1, Client: func(c int) model.Ops[core.KV, *core.Handle] {
		th := s.Thread(c)
		ops := model.Ops[core.KV, *core.Handle]{Put: th.Put, Get: th.Get, Del: th.Delete, Scan: th.Scan,
			PutBatch: th.PutBatch, MultiGet: th.MultiGet, PutAsync: th.PutAsync, GetAsync: th.GetAsync, DelAsync: th.DeleteAsync}
		if s.Replicas() == 1 {
			ops.Release = (*core.Handle).Release
		}
		return ops
	}}
}

// withReplicaFaults gives lv a replicated router's faults, one shard down
// at a time: a mid-op crash or a Fault event crashes shard arg mod n when
// every shard is up, and a Fault event with one down recovers it and
// repairs until a pass applies nothing. At the end the downed shard is
// healed and the replicas must have converged. down is the downed shard,
// or -1.
func withReplicaFaults(lv *model.Level[core.KV, *core.Handle], s *Store) (down func() int) {
	d := -1
	heal := func() error {
		if d < 0 {
			return nil
		}
		if _, err := s.RecoverShard(d); err != nil {
			return err
		}
		for i := 0; i < maxRepairPasses && s.Repair().Applied() > 0; i++ {
		}
		if st := s.ReplicaState(d); st != int(replicaUp) {
			return fmt.Errorf("shard %d state %d after repair", d, st)
		}
		d = -1
		return nil
	}
	lv.Crash = func(arg uint64) {
		if d < 0 {
			d = int(arg % uint64(s.NumShards()))
			s.CrashShard(d)
		}
	}
	lv.Fault = func(arg uint64) error {
		if d >= 0 {
			return heal()
		}
		lv.Crash(arg)
		return nil
	}
	lv.End = func() error {
		if err := heal(); err != nil {
			return err
		}
		return s.ConvergenceCheck()
	}
	return func() int { return d }
}

// The model harness on 3 shards x 2 replicas, one replica at a time
// crashed, written around, recovered and repaired — also in the middle of
// async bursts. With a replica down writes keep succeeding, so any
// routed error fails the test; an acked write is never lost and no read
// after failover returns a version older than the model's.
func TestReplicatedStoreMatchesModel(t *testing.T) {
	model.Run(t, model.Config{Keys: 150, Steps: 2500}, func(t *testing.T) model.Level[core.KV, *core.Handle] {
		s := repl(t, 3, 2, func(o *core.Options) { o.HSITCapacity = 1 << 10 }) // recovery walks the whole HSIT
		lv := routerLevel(s)
		withReplicaFaults(&lv, s)
		return lv
	})
}

// The auto-repair worker (DisableAutoRepair unset) converges a
// recovered replica without manual passes.
func TestAutoRepairWorker(t *testing.T) {
	s := small(t, 3, func(o *core.Options) { o.Replicas = 2 })
	th := s.Thread(0)
	const n = 200
	for i := 0; i < n; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.CrashShard(1)
	for i := n; i < n+100; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.RecoverShard(1); err != nil {
		t.Fatal(err)
	}
	waitUp(t, s, 1)
	if err := s.ConvergenceCheck(); err != nil {
		t.Fatal(err)
	}
}

// Regression: PutBatch must fail an entry whose entire replica set is
// down instead of silently acknowledging it. With every shard crashed
// no sub-batch is formed at all, so no sub-batch error fires — the
// per-entry coverage check has to run unconditionally.
func TestBatchAllReplicasDownNotAcked(t *testing.T) {
	s := repl(t, 3, 2, nil)
	th := s.Thread(0)
	kvs := []core.KV{
		{Key: key(0), Value: value(0)},
		{Key: key(1), Value: value(1)},
	}
	s.Crash()
	if err := th.PutBatch(kvs); !errors.Is(err, errNoReplica) {
		t.Fatalf("PutBatch after Crash = %v, want errNoReplica", err)
	}
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	// Partial outage: crash both shards of one key's replica set while
	// other sets stay live — the batch must still fail, not ack the
	// uncoverable entry on the strength of its neighbors.
	var victim []byte
	for i := 0; victim == nil; i++ {
		if s.ShardOf(key(i)) == 1 {
			victim = key(i)
		}
	}
	var covered []byte
	for i := 0; covered == nil; i++ {
		if s.ShardOf(key(i)) == 0 {
			covered = key(i)
		}
	}
	s.CrashShard(1)
	s.CrashShard(2) // victim's set is {1, 2}
	err := th.PutBatch([]core.KV{
		{Key: covered, Value: value(1)}, // set {0,1}: shard 0 live
		{Key: victim, Value: value(2)},  // set {1,2}: fully down
	})
	if !errors.Is(err, errNoReplica) {
		t.Fatalf("PutBatch with one set fully down = %v, want errNoReplica", err)
	}
}

// Regression: a repairing shard whose keyspace peer is down must not be
// promoted to up by a pass that pulled nothing — the down peer may hold
// the only copy of acked writes, and once the shard is up anti-entropy
// would never pull them in. Promotion waits until every keyspace peer
// was consultable.
func TestNoPromotionWhilePeerDown(t *testing.T) {
	s := repl(t, 3, 2, nil)
	th := s.Thread(0)
	const n = 200
	for i := 0; i < n; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash shard 1; the write burst acks on the survivors only.
	s.CrashShard(1)
	for i := n; i < n+100; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash shard 2 (which holds the only copy of burst keys whose set
	// is {1, 2}), then bring shard 1 back: its repair pass cannot
	// consult peer 2 and must leave it in the repairing state however
	// many passes run.
	s.CrashShard(2)
	if _, err := s.RecoverShard(1); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < maxRepairPasses; pass++ {
		if s.RepairShard(1).Applied() == 0 {
			break
		}
	}
	if st := s.ReplicaState(1); st != int(replicaRepairing) {
		t.Fatalf("shard 1 state after repair with peer 2 down = %d, want repairing", st)
	}
	// Peer recovers; repair now converges everything and promotes.
	if _, err := s.RecoverShard(2); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2*maxRepairPasses; pass++ {
		if s.Repair().Applied() == 0 && s.ReplicaState(1) == int(replicaUp) && s.ReplicaState(2) == int(replicaUp) {
			break
		}
	}
	if st := s.ReplicaState(1); st != int(replicaUp) {
		t.Fatalf("shard 1 state after full repair = %d, want up", st)
	}
	if err := s.ConvergenceCheck(); err != nil {
		t.Fatal(err)
	}
	// Every acked write — including the burst taken while shard 1 was
	// down — reads back.
	for i := 0; i < n+100; i++ {
		v, err := th.Get(key(i))
		if err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("Get(%d) after repair = %q, %v", i, v, err)
		}
	}
}

// Regression: Scan must consult a repairing shard for keyspace whose up
// replicas are all gone (one replica down, the other mid-repair), and
// must fail with errNoReplica — not silently omit keys — when a replica
// set has no live member at all.
func TestScanCoversRepairingSet(t *testing.T) {
	s := repl(t, 3, 2, nil)
	th := s.Thread(0)
	const n = 150
	for i := 0; i < n; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Shard 1 crashes and comes back repairing (no repair pass runs:
	// auto-repair is off); then shard 2 crashes. Set {1, 2} now has no
	// up member — only repairing shard 1 can serve it.
	s.CrashShard(1)
	if _, err := s.RecoverShard(1); err != nil {
		t.Fatal(err)
	}
	s.CrashShard(2)
	var got []string
	if err := th.Scan([]byte("user"), 0, func(kv core.KV) bool {
		got = append(got, string(kv.Key))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("scan with set {1,2} on its repairing member returned %d keys, want %d", len(got), n)
	}
	// Lose the repairing member too: set {1, 2} has no live replica and
	// the scan must error rather than drop its keyspace.
	s.CrashShard(1)
	err := th.Scan([]byte("user"), 0, func(kv core.KV) bool { return true })
	if !errors.Is(err, errNoReplica) {
		t.Fatalf("scan with a fully-down replica set = %v, want errNoReplica", err)
	}
}

// Regression: a peer whose records cannot be read vetoes promotion like
// a down peer. Shard 0's devices crash after the pass has read its state
// as up (core's Crash without the router's state change): the pass
// cannot read the keys of set {0, 1} that shard 1 missed, so shard 1
// must stay repairing however many passes run, and converge once shard
// 0 is back.
func TestRepairWaitsForUnreadablePeer(t *testing.T) {
	s := repl(t, 3, 2, nil)
	th := s.Thread(0)
	const n = 300
	s.CrashShard(1)
	for i := 0; i < n; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.RecoverShard(1); err != nil {
		t.Fatal(err)
	}
	s.Shard(0).Crash()
	for pass := 0; pass < maxRepairPasses; pass++ {
		if s.RepairShard(1).Applied() == 0 {
			break
		}
	}
	if st := s.ReplicaState(1); st != int(replicaRepairing) {
		t.Fatalf("shard 1 state after repair with peer 0 unreadable = %d, want repairing", st)
	}
	s.CrashShard(0)
	if _, err := s.RecoverShard(0); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2*maxRepairPasses; pass++ {
		if s.Repair().Applied() == 0 && s.ReplicaState(0) == int(replicaUp) && s.ReplicaState(1) == int(replicaUp) {
			break
		}
	}
	for i := 0; i < n; i++ {
		v, err := th.Get(key(i))
		if err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("Get(%d) after repair = %q, %v", i, v, err)
		}
	}
	if err := s.ConvergenceCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestRouterSyncAsyncAgree runs each case's op once through the sync
// path and once through the async one, each on a fresh store, and
// requires the same answer and the same moves of the router's replica
// counters: both paths fold one write verdict and step one read walk.
func TestRouterSyncAsyncAgree(t *testing.T) {
	k := key(0)
	put := func(th *Thread, async bool, k, v []byte) error {
		if async {
			return th.PutAsync(k, v).Wait()
		}
		return th.Put(k, v)
	}
	del := func(th *Thread, async bool, k []byte) error {
		if async {
			return th.DeleteAsync(k).Wait()
		}
		return th.Delete(k)
	}
	get := func(th *Thread, async bool, k []byte) error {
		var err error
		if async {
			_, err = th.GetAsync(k).Value()
		} else {
			_, err = th.Get(k)
		}
		return err
	}
	// each runs op n times and returns its first error.
	each := func(n int, op func(i int) error) error {
		var first error
		for i := 0; i < n; i++ {
			if err := op(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	counts := func(s *Store) map[string]float64 {
		out := map[string]float64{}
		for _, m := range s.reg.Snapshot().Metrics {
			switch m.Name {
			case "shard.replica_reads", "shard.replica_read_fallbacks", "shard.replica_writes", "shard.replica_errors":
				out[fmt.Sprint(m.Name, " ", m.Labels)] = m.Value
			}
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		setup func(s *Store, th *Thread)
		op    func(th *Thread, async bool) error
		want  error
		// fallbacks is how many of the op's reads a non-primary replica
		// serves (nil: none).
		fallbacks func(s *Store) int
		// legErrs is how many write legs fail (shard.replica_errors).
		legErrs int
	}{
		{"delete of a missing key, second replica closed underneath",
			func(s *Store, th *Thread) { s.Shard(s.route(k, nil)[1]).Crash() },
			func(th *Thread, async bool) error { return del(th, async, k) },
			core.ErrNotFound, nil, 1},
		{"put, every replica closed underneath",
			func(s *Store, th *Thread) {
				for _, j := range s.route(k, nil) {
					s.Shard(j).Crash()
				}
			},
			func(th *Thread, async bool) error { return put(th, async, k, value(0)) },
			errNoReplica, nil, 2 * (1 + writeRetries)}, // both legs, every attempt
		{"100 reads, shard 1 down",
			func(s *Store, th *Thread) {
				if err := each(100, func(i int) error { return th.Put(key(i), value(i)) }); err != nil {
					t.Fatal(err)
				}
				s.CrashShard(1)
			},
			func(th *Thread, async bool) error {
				return each(100, func(i int) error { return get(th, async, key(i)) })
			},
			nil,
			func(s *Store) (n int) {
				for i := 0; i < 100; i++ {
					if s.ShardOf(key(i)) == 1 {
						n++
					}
				}
				return n
			}, 0},
		{"10 deletes of missing keys",
			nil,
			func(th *Thread, async bool) error {
				return each(10, func(i int) error { return del(th, async, key(i)) })
			},
			core.ErrNotFound, nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var moved [2]map[string]float64
			for i, async := range []bool{false, true} {
				s := repl(t, 3, 2, nil)
				th := s.Thread(0)
				if tc.setup != nil {
					tc.setup(s, th)
				}
				before := counts(s)
				if err := tc.op(th, async); !errors.Is(err, tc.want) {
					t.Fatalf("async=%v: %v, want %v", async, err, tc.want)
				}
				moved[i] = counts(s)
				for name, v := range before {
					moved[i][name] -= v
				}
				want := 0
				if tc.fallbacks != nil {
					want = tc.fallbacks(s)
				}
				if got := moved[i]["shard.replica_read_fallbacks map[]"]; got != float64(want) {
					t.Fatalf("async=%v: %v read fallbacks, want %d", async, got, want)
				}
				if got := moved[i]["shard.replica_errors map[]"]; got != float64(tc.legErrs) {
					t.Fatalf("async=%v: %v failed write legs, want %d", async, got, tc.legErrs)
				}
			}
			if fmt.Sprint(moved[0]) != fmt.Sprint(moved[1]) {
				t.Fatalf("counters moved\n sync  %v\n async %v", moved[0], moved[1])
			}
		})
	}
}

// Regression: core's rejection of an oversized value is the write's
// answer, not a replica fault — no replica the write reached may leave
// the up state for it.
func TestOversizedValueKeepsReplicasUp(t *testing.T) {
	s := repl(t, 3, 2, nil)
	th := s.Thread(0)
	big := make([]byte, 70_000) // over hsit.MaxValueLen
	for _, tc := range []struct {
		name string
		op   func() error
	}{
		{"Put", func() error { return th.Put(key(0), big) }},
		{"PutAsync", func() error { return th.PutAsync(key(0), big).Wait() }},
		{"PutBatch", func() error {
			return th.PutBatch([]core.KV{{Key: key(1), Value: value(1)}, {Key: key(0), Value: big}})
		}},
	} {
		err := tc.op()
		for j := 0; j < s.NumShards(); j++ {
			if st := s.ReplicaState(j); st != int(replicaUp) {
				t.Fatalf("%s: shard %d state %d after an oversized value, want up", tc.name, j, st)
			}
		}
		if !errors.Is(err, core.ErrValueTooLarge) {
			t.Fatalf("%s of an oversized value = %v, want ErrValueTooLarge", tc.name, err)
		}
	}
}

// Regression: Metrics must not panic while a shard is crashed. The
// crashed shard's svc.* gauges read 0, and follow its fresh cache once
// it is recovered and repaired.
func TestMetricsWhileShardCrashed(t *testing.T) {
	s := repl(t, 3, 2, func(o *core.Options) { o.PWBBytesPerThread = 4096 })
	th := s.Thread(0)
	one := map[string]string{"shard": "1"}
	entries := func() float64 {
		t.Helper()
		m, ok := s.Metrics().Get("svc.entries", one)
		if !ok {
			t.Fatal("svc.entries{shard=1} not in snapshot")
		}
		return m.Value
	}
	var k []byte // an early key (pushed through the tiny rings) primaried on shard 1
	for i := 0; k == nil; i++ {
		if s.ShardOf(key(i)) == 1 {
			k = key(i)
		}
	}
	// Rewrite everything, then read k until shard 1 serves it from its SVC.
	cacheK := func() {
		t.Helper()
		for i := 0; i < 512; i++ {
			if err := th.Put(key(i), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		for tries, hits := 0, reg(t, s.Shard(1)).n("core.read_path", "source", "svc"); reg(t, s.Shard(1)).n("core.read_path", "source", "svc") == hits; tries++ {
			if tries == 100 {
				t.Fatal("shard 1 never served k from its SVC")
			}
			if _, err := th.Get(k); err != nil {
				t.Fatal(err)
			}
		}
		if n := entries(); n == 0 {
			t.Fatal("svc.entries{shard=1} = 0 with k cached")
		}
	}
	cacheK()
	s.CrashShard(1)
	if n := entries(); n != 0 {
		t.Fatalf("svc.entries{shard=1} = %v while crashed, want 0", n)
	}
	if _, err := s.RecoverShard(1); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < maxRepairPasses && s.ReplicaState(1) != int(replicaUp); pass++ {
		s.RepairShard(1)
	}
	cacheK()
}
