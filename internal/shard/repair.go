package shard

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
)

// Anti-entropy repair (the creiht/valuestore pull-replication idiom):
// a repair pass for shard j walks every peer's timestamped entry map —
// live stamps and tombstones — restricted to keys whose replica set
// contains j, and pulls anything stamped newer than j's own record.
// Pulls ride the existing async submission pipeline on core thread 0 of
// the source and destination shards (the async methods are safe from
// any goroutine), so repair traffic is coalesced and timed on the same
// virtual async timelines as foreground pipelined load. Last-writer-
// wins at the destination makes passes idempotent: a pass that races
// foreground writes at worst re-offers a stamp the destination already
// has. Convergence is "a full pass pulled nothing".

// maxRepairPasses bounds one convergence attempt of the background
// worker. Under quiesced writes a single pass converges; under
// continuous load each pass shrinks the in-flight window, and if the
// bound is hit the shard simply stays repairing until the next attempt.
const maxRepairPasses = 16

// RepairStats reports what one or more anti-entropy passes applied.
type RepairStats struct {
	Passes              int // enumeration passes run
	KeysPulled          int // live values re-replicated
	TombstonesPulled    int // tombstones propagated
	TombstonesDiscarded int // tombstones dropped past the grace window
}

// Applied returns the number of records a pass moved — zero means the
// pass found the shard converged.
func (r RepairStats) Applied() int { return r.KeysPulled + r.TombstonesPulled }

func (r *RepairStats) add(o RepairStats) {
	r.Passes += o.Passes
	r.KeysPulled += o.KeysPulled
	r.TombstonesPulled += o.TombstonesPulled
	r.TombstonesDiscarded += o.TombstonesDiscarded
}

// CrashShard simulates a power failure on shard j's devices and marks
// the replica down so the replicated paths route around it. With
// Replicas == 1 this is Shard(j).Crash() plus unavailability for j's
// keyspace until RecoverShard.
func (s *Store) CrashShard(j int) {
	s.setState(j, replicaDown)
	s.shards[j].Crash()
}

// RecoverShard rebuilds shard j from its durable state and, when
// replicated, moves it to the repairing state: it immediately accepts
// new writes (so it stops diverging) but serves reads only as a last
// resort until an anti-entropy pass converges it — the background
// worker is kicked automatically unless Options.DisableAutoRepair.
func (s *Store) RecoverShard(j int) (core.RecoveryReport, error) {
	rep, err := s.shards[j].Recover()
	if err != nil {
		return rep, err
	}
	if s.replicas <= 1 {
		s.setState(j, replicaUp)
		return rep, nil
	}
	s.setState(j, replicaRepairing)
	if !s.opt.DisableAutoRepair && s.repairCh != nil {
		select {
		case s.repairCh <- j:
		default: // worker already has a kick pending; it re-scans states
		}
	}
	return rep, nil
}

// repairWorker is the background anti-entropy goroutine: each kick
// sweeps every repairing shard to convergence. A shard that does not
// converge within maxRepairPasses (continuous heavy writes) stays
// repairing and is retried after a short real-time backoff, so the
// worker never spins hot.
func (s *Store) repairWorker() {
	defer s.repairWG.Done()
	for {
		select {
		case <-s.repairStop:
			return
		case <-s.repairCh:
		}
		for {
			progressed := false
			pending := false
			for j := range s.state {
				if s.state[j].Load() != replicaRepairing {
					continue
				}
				if s.repairUntilConverged(j) {
					progressed = true
				} else {
					pending = true
				}
			}
			if !pending {
				break
			}
			if !progressed {
				select {
				case <-s.repairStop:
					return
				case <-time.After(time.Millisecond):
				}
			}
		}
	}
}

// stopRepairWorker joins the background worker (idempotent).
func (s *Store) stopRepairWorker() {
	if s.repairStop == nil {
		return
	}
	select {
	case <-s.repairStop:
	default:
		close(s.repairStop)
	}
	s.repairWG.Wait()
}

// repairUntilConverged runs passes for shard j until one pulls nothing
// (RepairShard promotes the shard to up on that pass, unless a keyspace
// peer was down — then the shard stays repairing and the worker parks
// until the peer's RecoverShard kicks it again). Returns false if the
// pass bound was hit (or the shard crashed again mid-repair) without
// the pass going quiet.
func (s *Store) repairUntilConverged(j int) bool {
	for pass := 0; pass < maxRepairPasses; pass++ {
		st := s.RepairShard(j)
		if s.state[j].Load() != replicaRepairing {
			return true // converged, or crashed again mid-repair
		}
		if st.Applied() == 0 {
			return true
		}
	}
	return false
}

// RepairShard runs one anti-entropy pull pass into shard j: enumerate
// every live peer's stamps for keys replicated on j and pull anything
// newer than j's own record. Returns what the pass applied; call it
// repeatedly until Applied() == 0 for convergence (the fault-injection
// gate asserts the pass count stays bounded). A pass that pulls nothing
// promotes a repairing shard back to up — unless a keyspace peer was
// down during the pass: that peer may be the only holder of acked
// writes for j's keyspace, so promoting on a pass that could not
// consult it would declare convergence while acked data is still
// missing (and, since anti-entropy only pulls into repairing shards,
// the gap would never heal once j is up). The shard stays repairing
// until a pass runs with every keyspace peer consultable; RecoverShard
// on the peer re-kicks the worker. Safe to call concurrently with
// foreground traffic; passes themselves serialize.
func (s *Store) RepairShard(j int) RepairStats {
	var st RepairStats
	if s.replicas <= 1 {
		return st
	}
	s.repairMu.Lock()
	defer s.repairMu.Unlock()
	st.Passes = 1
	s.m.repairPasses.Inc()
	dst := s.shards[j]
	peerDown := false
	var rset []int
	for i := range s.shards {
		if i == j {
			continue
		}
		if s.state[i].Load() == replicaDown {
			if s.ringPeers(i, j) {
				peerDown = true
			}
			continue
		}
		src := s.shards[i]
		type ent struct {
			key  []byte
			ts   uint64
			tomb bool
		}
		var todo []ent
		src.ReplicaEntries(func(key []byte, ts uint64, tomb bool) bool {
			rset = s.route(key, rset)
			member := false
			for _, r := range rset {
				if r == j {
					member = true
					break
				}
			}
			if !member {
				return true
			}
			if cur, _, ok := dst.ReplicaNewest(key); !ok || cur < ts {
				todo = append(todo, ent{key: key, ts: ts, tomb: tomb})
			}
			return true
		})
		for _, e := range todo {
			if e.tomb {
				err := dst.Thread(0).DeleteTSAsync(e.key, e.ts).Wait()
				if err == nil || errors.Is(err, core.ErrNotFound) {
					st.TombstonesPulled++
					s.m.repairTombsPulled.Inc()
				}
				continue
			}
			v, err := src.Thread(0).GetAsync(e.key).Value()
			if err != nil {
				continue // overwritten or deleted since enumeration; next pass settles it
			}
			// Re-check the stamp: installing v under e.ts when the source
			// has moved on would pin a stale value under a newer-looking
			// stamp. A moved stamp is left for the next pass.
			if ts2, tomb2, ok := src.ReplicaNewest(e.key); !ok || tomb2 || ts2 != e.ts {
				continue
			}
			if dst.Thread(0).PutTSAsync(e.key, v, e.ts).Wait() == nil {
				st.KeysPulled++
				s.m.repairKeysPulled.Inc()
			}
		}
	}
	if st.Applied() == 0 && !peerDown && s.state[j].CompareAndSwap(replicaRepairing, replicaUp) {
		s.m.repairConverged.Inc()
	}
	return st
}

// ringPeers reports whether shards i and j share any replica set: with
// ring-successor placement the set of primary p is {p .. p+R-1} mod n,
// so two shards overlap some set exactly when their ring distance is
// less than the replica factor.
func (s *Store) ringPeers(i, j int) bool {
	n := len(s.shards)
	d := i - j
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d < s.replicas
}

// Repair runs one pull pass into every live shard, promotes repairing
// shards that converged, and — only when every replica is up — discards
// tombstones older than Options.TombstoneGraceWrites stamps, the point
// at which every replica has provably seen them. Returns the aggregate
// work applied; call until Applied() == 0 for full convergence.
func (s *Store) Repair() RepairStats {
	var agg RepairStats
	if s.replicas <= 1 {
		return agg
	}
	for j := range s.shards {
		if s.state[j].Load() == replicaDown {
			continue
		}
		agg.add(s.RepairShard(j))
	}
	allUp := true
	for j := range s.state {
		if s.state[j].Load() != replicaUp {
			allUp = false
			break
		}
	}
	if allUp {
		if cur := s.stamps.Load(); cur > s.graceWrites() {
			cutoff := cur - s.graceWrites()
			for _, cs := range s.shards {
				n := cs.DiscardTombstones(cutoff)
				agg.TombstonesDiscarded += n
				s.m.repairTombsDiscarded.Add(int64(n))
			}
		}
	}
	return agg
}

func (s *Store) graceWrites() uint64 {
	if s.opt.TombstoneGraceWrites != 0 {
		return s.opt.TombstoneGraceWrites
	}
	return 4096 // core's default (applyDefaults runs per shard, not here)
}

// PairDigest folds an order-independent digest of the replicated
// keyspace shards i and j share: every (key, stamp, tombstone) record
// on each side whose replica set contains both shards. Equal digests
// mean the two replicas agree bit-for-bit on their shared keys — the
// convergence check the fault-injection gate uses. Callers must quiesce
// writes first (the fold reads live state).
func (s *Store) PairDigest(i, j int) (di, dj uint64) {
	return s.sharedDigest(i, j), s.sharedDigest(j, i)
}

// sharedDigest digests shard a's records for keys replicated on both a
// and b.
func (s *Store) sharedDigest(a, b int) uint64 {
	var d uint64
	var rset []int
	s.shards[a].ReplicaEntries(func(key []byte, ts uint64, tomb bool) bool {
		rset = s.route(key, rset)
		hasA, hasB := false, false
		for _, r := range rset {
			hasA = hasA || r == a
			hasB = hasB || r == b
		}
		if !hasA || !hasB {
			return true
		}
		h := fnv64a(key) ^ (ts * 0x9e3779b97f4a7c15)
		if tomb {
			h = ^h
		}
		// Avalanche before folding so single-bit stamp differences
		// cannot cancel across keys.
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		d ^= h
		return true
	})
	return d
}

// ConvergenceCheck verifies full-keyspace digest equality across every
// replica pair that is not down, returning an error naming the first
// divergent pair. Quiesce writes (Flush, stop submitting) before
// calling.
func (s *Store) ConvergenceCheck() error {
	if s.replicas <= 1 {
		return nil
	}
	for i := 0; i < len(s.shards); i++ {
		if s.state[i].Load() == replicaDown {
			continue
		}
		for j := i + 1; j < len(s.shards); j++ {
			if s.state[j].Load() == replicaDown {
				continue
			}
			if di, dj := s.PairDigest(i, j); di != dj {
				return fmt.Errorf("prism: replicas diverged: shard %d digest %016x != shard %d digest %016x", i, di, j, dj)
			}
		}
	}
	return nil
}
