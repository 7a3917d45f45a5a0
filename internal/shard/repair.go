package shard

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
)

// Anti-entropy repair (the creiht/valuestore pull-replication idiom):
// a repair pass for shard j pulls from every peer the records of keys
// whose replica set contains j — live stamps and tombstones — that j
// lacks or holds an older stamp for. The copy itself is pull, below, the
// router's one pull path: range migration (migrate.go) runs the same
// function. Pulls ride the existing async submission pipeline on core
// thread 0 of the source and destination shards (the async methods are
// safe from any goroutine), so repair traffic is coalesced and timed on
// the same virtual async timelines as foreground pipelined load. Last-
// writer-wins at the destination makes passes idempotent: a pass that
// races foreground writes at worst re-offers a stamp the destination
// already has. Convergence is "a full pass read every keyspace peer and
// pulled nothing".

// maxRepairPasses bounds one convergence attempt of the background
// worker. Under quiesced writes a single pass converges; under
// continuous load each pass shrinks the in-flight window, and if the
// bound is hit the shard simply stays repairing until the next attempt.
const maxRepairPasses = 16

// tombstoneGraceWrites is how many logical stamps a tombstone is kept
// after its delete before Repair may discard it (creiht/valuestore's
// tombstone age in stamp units: the simulation has no wall clock).
const tombstoneGraceWrites = 4096

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
// peer was down or unreadable — then the shard stays repairing and the worker parks
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

// RepairShard runs one anti-entropy pull pass into shard j: pull from
// every peer the records of keys replicated on j that are newer than j's
// own. Returns what the pass applied; call it repeatedly until
// Applied() == 0 for convergence (the fault-injection gate asserts the
// pass count stays bounded). A pass that pulls nothing promotes a
// repairing shard back to up — unless a keyspace peer could not be read
// during the pass, because it was down or its pull failed (a crash
// landing after the pass read its state): that peer may be the only
// holder of acked writes for j's keyspace, so promoting on a pass that
// could not consult it would declare convergence while acked data is
// still missing (and, since anti-entropy only pulls into repairing
// shards, the gap would never heal once j is up). The shard stays
// repairing until a pass reads every keyspace peer; RecoverShard on the
// peer re-kicks the worker. Safe to call concurrently with foreground
// traffic; passes themselves serialize.
func (s *Store) RepairShard(j int) RepairStats {
	var st RepairStats
	if s.replicas <= 1 {
		return st
	}
	s.repairMu.Lock()
	defer s.repairMu.Unlock()
	st.Passes = 1
	s.m.repairPasses.Inc()
	var rset []int
	member := func(key []byte) bool {
		rset = s.route(key, rset)
		return slices.Contains(rset, j)
	}
	unread := false
	for i := range s.shards {
		if i == j {
			continue
		}
		keys, tombs, err := s.pull(i, []int{j}, member)
		st.KeysPulled += keys
		st.TombstonesPulled += tombs
		s.m.repairKeysPulled.Add(int64(keys))
		s.m.repairTombsPulled.Add(int64(tombs))
		unread = unread || err != nil && s.ringPeers(i, j)
	}
	if st.Applied() == 0 && !unread && s.state[j].CompareAndSwap(replicaRepairing, replicaUp) {
		s.m.repairConverged.Inc()
	}
	return st
}

// pull copies src's stamped records onto dsts under last-writer-wins —
// the one copy path behind repair and range migration. It walks src's
// ReplicaEntries snapshot, keeps the records whose key want accepts and
// that some live destination other than src lacks (no stamp, or an older
// one), and only for those reads the value on src's core thread 0 and
// re-checks the stamp: a value superseded since the snapshot is left to
// its newer record rather than installed under the older stamp. Each
// kept record is applied on every destination that lacks it. Returns the
// live values and tombstones applied (one per destination) and the
// failure that stopped the walk: src down, an ErrClosed from either
// side, or src no longer holding a value its record still claims.
func (s *Store) pull(src int, dsts []int, want func(key []byte) bool) (keys, tombs int, err error) {
	if s.state[src].Load() == replicaDown {
		return 0, 0, fmt.Errorf("prism: shard %d is down: %w", src, errNoReplica)
	}
	from := s.shards[src]
	lacks := func(d int, key []byte, ts uint64) bool {
		if d == src || s.state[d].Load() == replicaDown {
			return false
		}
		cur, _, ok := s.shards[d].ReplicaNewest(key)
		return !ok || cur < ts
	}
	from.ReplicaEntries(func(key []byte, ts uint64, tomb bool) bool {
		if !want(key) || !slices.ContainsFunc(dsts, func(d int) bool { return lacks(d, key, ts) }) {
			return true
		}
		var val []byte
		if !tomb {
			v, rerr := from.Thread(0).GetAsync(key).Value()
			cur, curTomb, ok := from.ReplicaNewest(key)
			claimed := ok && !curTomb && cur == ts
			if rerr != nil && (claimed || errors.Is(rerr, core.ErrClosed)) {
				err = rerr
				return false
			}
			if rerr != nil || !claimed {
				return true // superseded since the snapshot
			}
			val = v
		}
		for _, d := range dsts {
			if !lacks(d, key, ts) {
				continue
			}
			th := s.shards[d].Thread(0)
			var h *core.Handle
			if tomb {
				h = th.DeleteTSAsync(key, ts)
			} else {
				h = th.PutTSAsync(key, val, ts)
			}
			// ErrNotFound: a tombstone recorded with nothing live to remove.
			if werr := h.Wait(); werr != nil && !errors.Is(werr, core.ErrNotFound) {
				err = werr
				return false
			}
			if tomb {
				tombs++
			} else {
				keys++
			}
		}
		return true
	})
	return keys, tombs, err
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
// tombstones older than tombstoneGraceWrites stamps, the point at which
// every replica has provably seen them. Returns the aggregate
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
	if s.allUp() {
		if cur := s.stamps.Load(); cur > tombstoneGraceWrites {
			cutoff := cur - tombstoneGraceWrites
			for _, cs := range s.shards {
				n := cs.DiscardTombstones(cutoff)
				agg.TombstonesDiscarded += n
				s.m.repairTombsDiscarded.Add(int64(n))
			}
		}
	}
	return agg
}

// sharedDigest folds an order-independent digest of shard a's records
// — (key, stamp, tombstone) — for keys replicated on both a and b. Equal
// digests both ways mean the two replicas agree bit-for-bit on their
// shared keys. Callers must quiesce writes first (the fold reads live
// state).
func (s *Store) sharedDigest(a, b int) uint64 {
	var d uint64
	var rset []int
	s.shards[a].ReplicaEntries(func(key []byte, ts uint64, tomb bool) bool {
		rset = s.route(key, rset)
		if !slices.Contains(rset, a) || !slices.Contains(rset, b) {
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
			if di, dj := s.sharedDigest(i, j), s.sharedDigest(j, i); di != dj {
				return fmt.Errorf("prism: replicas diverged: shard %d digest %016x != shard %d digest %016x", i, di, j, dj)
			}
		}
	}
	return nil
}
