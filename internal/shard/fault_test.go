package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// waitUp polls until shard j reports up (auto-repair worker done) or
// the deadline passes. Real time, not virtual: the repair worker runs
// on its own goroutine.
func waitUp(t *testing.T, s *Store, j int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s.ReplicaState(j) == int(replicaUp) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("shard %d did not converge to up (state=%d)", j, s.ReplicaState(j))
}

// TestFaultMatrix is the CI replica-kill gate (make fault-smoke): for
// each (shards, replicas) cell, crash a replica in the middle of an
// async write burst, assert no acknowledged write is lost, reads keep
// being served off the survivors, and after recovery anti-entropy
// converges within a bounded number of passes to digest equality.
func TestFaultMatrix(t *testing.T) {
	cells := []struct{ shards, replicas int }{
		{2, 2},
		{3, 2},
		{3, 3},
	}
	for _, c := range cells {
		c := c
		t.Run(fmt.Sprintf("shards=%d,replicas=%d", c.shards, c.replicas), func(t *testing.T) {
			faultMatrixCell(t, c.shards, c.replicas)
		})
	}
}

func faultMatrixCell(t *testing.T, shards, replicas int) {
	s := repl(t, shards, replicas, nil)
	th := s.Thread(0)

	// Seed phase: a settled keyspace all replicas hold.
	const seed = 300
	for i := 0; i < seed; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Burst phase: async writes in flight while the victim crashes.
	// Async submission is safe from any goroutine, and Crash() joins
	// each shard's admission loop, so acks are unambiguous: a handle
	// that resolves nil was durably applied on >= 1 live replica.
	const burst = 400
	victim := shards - 1
	type pending struct {
		i int
		h *core.Handle
	}
	hs := make([]pending, 0, burst)
	for i := seed; i < seed+burst; i++ {
		if i == seed+burst/2 {
			s.CrashShard(victim)
		}
		hs = append(hs, pending{i, th.PutAsync(key(i), value(i))})
	}
	var acked []int
	for _, p := range hs {
		if err := p.h.Wait(); err == nil {
			acked = append(acked, p.i)
		}
	}
	if len(acked) < burst/2 {
		t.Fatalf("only %d/%d burst writes acked with one replica down", len(acked), burst)
	}

	// While the victim is down: every acked key (and the whole seed)
	// stays readable via failover.
	readAll := func(when string) {
		for i := 0; i < seed; i++ {
			v, err := th.Get(key(i))
			if err != nil || !bytes.Equal(v, value(i)) {
				t.Fatalf("%s: seed key %d = %q, %v", when, i, v, err)
			}
		}
		for _, i := range acked {
			v, err := th.Get(key(i))
			if err != nil || !bytes.Equal(v, value(i)) {
				t.Fatalf("%s: acked key %d lost: %q, %v", when, i, v, err)
			}
		}
	}
	readAll("victim down")

	// Some deletes while degraded, to exercise tombstone propagation
	// through repair.
	for i := 0; i < 20; i++ {
		if err := th.Delete(key(i)); err != nil {
			t.Fatalf("delete %d while degraded: %v", i, err)
		}
	}

	if _, err := s.RecoverShard(victim); err != nil {
		t.Fatal(err)
	}
	passes := 0
	const passBound = 8
	for ; passes < passBound; passes++ {
		if s.RepairShard(victim).Applied() == 0 {
			break
		}
	}
	if passes >= passBound {
		t.Fatalf("anti-entropy did not converge within %d passes", passBound)
	}
	if s.ReplicaState(victim) != int(replicaUp) {
		t.Fatalf("victim state %d after converged repair", s.ReplicaState(victim))
	}
	if err := s.ConvergenceCheck(); err != nil {
		t.Fatalf("digest divergence after repair (%d passes): %v", passes, err)
	}

	// Post-repair audit: deletes held, acked writes present.
	for i := 0; i < 20; i++ {
		if _, err := th.Get(key(i)); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("deleted key %d resurrected by repair: %v", i, err)
		}
	}
	for i := 20; i < seed; i++ {
		v, err := th.Get(key(i))
		if err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("post-repair: seed key %d = %q, %v", i, v, err)
		}
	}
	for _, i := range acked {
		v, err := th.Get(key(i))
		if err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("post-repair: acked key %d lost: %q, %v", i, v, err)
		}
	}
}

// TestReplicaFanoutStress runs in the strict race gate: concurrent
// mixed operations across router threads while a chaos goroutine
// crashes and recovers replicas, with the background auto-repair
// worker enabled. The assertions are liveness and convergence, not
// exact contents — interleaved crashes can legitimately drop unacked
// writes.
func TestReplicaFanoutStress(t *testing.T) {
	const shards, replicas = 3, 2
	s := small(t, shards, func(o *core.Options) {
		o.Replicas = replicas
		o.NumThreads = 4
	})
	const (
		workers = 4
		opsEach = 600
	)
	var failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := s.Thread(w)
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for i := 0; i < opsEach; i++ {
				k := key(rng.Intn(200))
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4:
					if err := th.Put(k, value(i)); err != nil {
						failed.Add(1)
					}
				case 5:
					err := th.Delete(k)
					if err != nil && !errors.Is(err, core.ErrNotFound) {
						failed.Add(1)
					}
				case 6:
					_ = th.PutAsync(k, value(i))
				case 7:
					kvs := []core.KV{
						{Key: key(rng.Intn(200)), Value: value(i)},
						{Key: key(rng.Intn(200)), Value: value(i + 1)},
					}
					if err := th.PutBatch(kvs); err != nil {
						failed.Add(1)
					}
				default:
					_, err := th.Get(k)
					if err != nil && !errors.Is(err, core.ErrNotFound) {
						failed.Add(1)
					}
				}
			}
		}(w)
	}

	// Chaos: crash one replica at a time, let auto-repair bring it
	// back, bounded rounds.
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		rng := rand.New(rand.NewSource(42))
		for round := 0; round < 6; round++ {
			victim := rng.Intn(shards)
			if s.ReplicaState(victim) != int(replicaUp) {
				time.Sleep(2 * time.Millisecond)
				continue
			}
			s.CrashShard(victim)
			time.Sleep(2 * time.Millisecond)
			if _, err := s.RecoverShard(victim); err != nil {
				t.Errorf("chaos recover shard %d: %v", victim, err)
				return
			}
			// Wait for the background worker to converge before the
			// next crash (two concurrent downs with R=2 could kill a
			// whole replica set).
			deadline := time.Now().Add(10 * time.Second)
			for s.ReplicaState(victim) != int(replicaUp) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if s.ReplicaState(victim) != int(replicaUp) {
				t.Errorf("chaos: shard %d stuck in state %d", victim, s.ReplicaState(victim))
				return
			}
		}
	}()
	wg.Wait()
	<-chaosDone
	if t.Failed() {
		return
	}
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d operations failed despite >=1 live replica per set", n)
	}

	// Quiesce: everything up, one final repair, digests must agree.
	for j := 0; j < shards; j++ {
		waitUp(t, s, j)
	}
	for i := 0; i < maxRepairPasses; i++ {
		if s.Repair().Applied() == 0 {
			break
		}
	}
	if err := s.ConvergenceCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestScanReplansAfterCrashBetweenPhases: a range read has two phases, so
// a shard it asked can crash after the plan — and, in a merge, after its
// walk — and before its row read. The read is planned again from the
// replica states the crash left — the survivors hold every key — and fn
// sees every row once, whether the range is hash-owned (a merge over a
// covering set) or owned (one member of the owner's set). A crash that
// leaves some replica set with no live member fails the scan with
// errNoReplica, as it does when the set is down before the scan starts;
// and without replication the crashed shard's own error is the answer.
func TestScanReplansAfterCrashBetweenPhases(t *testing.T) {
	const n = 300
	fill := func(s *Store) *Store {
		for i := 0; i < n; i++ {
			if err := s.Thread(0).Put(key(i), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	// crashOne arms the seam to crash the first shard about to read rows.
	crashOne := func(s *Store) *int {
		crashed := -1
		scanHook = func(th *Thread) {
			if crashed < 0 {
				crashed = th.touched[0]
				s.CrashShard(crashed)
			}
		}
		t.Cleanup(func() { scanHook = nil })
		return &crashed
	}
	// scanAll scans the whole store and expects every row, in order.
	scanAll := func(name string, s *Store) {
		crashed := crashOne(s)
		i := 0
		if err := s.Thread(0).Scan(nil, 0, func(kv core.KV) bool {
			if !bytes.Equal(kv.Key, key(i)) || !bytes.Equal(kv.Value, value(i)) {
				t.Fatalf("%s: row %d of the replanned scan is %s", name, i, kv.Key)
			}
			i++
			return true
		}); err != nil || i != n || *crashed < 0 {
			t.Fatalf("%s: scan across the crash of shard %d returned %d of %d rows: %v", name, *crashed, i, n, err)
		}
	}

	scanAll("hash-placed", fill(repl(t, 3, 2, nil)))
	scanAll("range-placed", fill(rng(t, 3, 2, quartiles(n, 3), nil)))

	// Shard 1 is down already; the crash of an asked neighbour takes the
	// last member of a replica set with it.
	s := fill(repl(t, 3, 2, nil))
	s.CrashShard(1)
	crashed := crashOne(s)
	err := s.Thread(0).Scan(nil, 0, func(core.KV) bool {
		t.Fatal("a scan that cannot cover the keyspace emitted a row")
		return false
	})
	if !errors.Is(err, errNoReplica) || *crashed < 0 {
		t.Fatalf("scan with shards 1 and %d down = %v, want errNoReplica", *crashed, err)
	}

	s = fill(repl(t, 3, 1, nil))
	crashed = crashOne(s)
	if err := s.Thread(0).Scan(nil, 0, func(core.KV) bool { return true }); !errors.Is(err, core.ErrClosed) || *crashed < 0 {
		t.Fatalf("unreplicated scan across the crash of shard %d = %v, want the shard's ErrClosed", *crashed, err)
	}
}
