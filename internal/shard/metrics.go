package shard

import (
	"strconv"

	"repro/internal/obs"
)

// routerMetrics are the router's own counters — everything a shard's
// core registry cannot see because it happens above the shards.
type routerMetrics struct {
	routedPut, routedGet     *obs.Counter
	routedDelete, routedScan *obs.Counter
	crossPut, crossGet       *obs.Counter
	scanMerges               *obs.Counter

	// Range placement + migration (registered only when Placement is
	// "range"; in hash mode they stay nil, and a nil counter is a no-op).
	rangeScans       *obs.Counter
	migSplits        *obs.Counter
	migRanges        *obs.Counter
	migKeysStreamed  *obs.Counter
	migTombsStreamed *obs.Counter
	migAborts        *obs.Counter
	migPurged        *obs.Counter
	migFrozenWaits   *obs.Counter
	migDualReads     *obs.Counter

	// Replication (registered only when Replicas > 1; with one replica
	// they stay nil, so the shared op path needs no branch to keep the
	// shard.replica_* series absent).
	replicaPut, replicaDelete *obs.Counter
	replicaErrors             *obs.Counter
	replicaFallbacks          *obs.Counter
	replicaReads              []*obs.Counter // by position in the replica set
	repairPasses              *obs.Counter
	repairKeysPulled          *obs.Counter
	repairTombsPulled         *obs.Counter
	repairTombsDiscarded      *obs.Counter
	repairConverged           *obs.Counter
}

func (s *Store) registerMetrics() {
	r := s.reg
	op := func(v string) map[string]string { return map[string]string{"op": v} }
	const routedHelp = "ops routed to their shards: single-key ops to the key's shard set, scans through the placement ranges"
	s.m.routedPut = r.Counter(obs.Desc{Name: "shard.routed_ops", Help: routedHelp, Unit: "ops", Labels: op("put")})
	s.m.routedGet = r.Counter(obs.Desc{Name: "shard.routed_ops", Help: routedHelp, Unit: "ops", Labels: op("get")})
	s.m.routedDelete = r.Counter(obs.Desc{Name: "shard.routed_ops", Help: routedHelp, Unit: "ops", Labels: op("delete")})
	s.m.routedScan = r.Counter(obs.Desc{Name: "shard.routed_ops", Help: routedHelp, Unit: "ops", Labels: op("scan")})
	s.m.crossPut = r.Counter(obs.Desc{Name: "shard.cross_batches", Help: "batches fanned out to more than one shard", Unit: "ops", Labels: op("put")})
	s.m.crossGet = r.Counter(obs.Desc{Name: "shard.cross_batches", Help: "batches fanned out to more than one shard", Unit: "ops", Labels: op("get")})
	s.m.scanMerges = r.Counter(obs.Desc{Name: "shard.scan_merges", Help: "range reads whose plan asked more than one shard: key-index walks merged, each row then read once", Unit: "ops"})
	r.GaugeFunc(obs.Desc{Name: "shard.count", Help: "number of shards", Unit: "shards"},
		func() float64 { return float64(len(s.shards)) })
	for i := range s.shards {
		cs := s.shards[i]
		r.GaugeFunc(obs.Desc{Name: "shard.keys", Help: "live keys on one shard", Unit: "keys",
			Labels: map[string]string{"shard": strconv.Itoa(i)}},
			func() float64 { return float64(cs.Len()) })
	}
	s.registerPlacementMetrics()
	s.registerReplicaMetrics()
	r.GaugeFunc(obs.Desc{Name: "shard.imbalance", Help: "max/mean live keys across shards (1.0 = perfectly balanced, 0 = empty)", Unit: "ratio"},
		func() float64 {
			var total, max int
			for _, cs := range s.shards {
				n := cs.Len()
				total += n
				if n > max {
					max = n
				}
			}
			if total == 0 {
				return 0
			}
			mean := float64(total) / float64(len(s.shards))
			return float64(max) / mean
		})
}

// registerPlacementMetrics registers the range-placement and migration
// families; only range-mode stores export them.
func (s *Store) registerPlacementMetrics() {
	if !s.rangeMode {
		return
	}
	r := s.reg
	r.GaugeFunc(obs.Desc{Name: "shard.placement_epoch", Help: "current placement epoch (bumped by every split and migration flip)", Unit: "epoch"},
		func() float64 { return float64(s.PlacementEpoch()) })
	s.m.rangeScans = r.Counter(obs.Desc{Name: "shard.range_scans", Help: "scans routed through the boundary table, each range read through one plan", Unit: "ops"})
	s.m.migSplits = r.Counter(obs.Desc{Name: "migrate.splits", Help: "placement boundaries inserted by SplitRange", Unit: "ops"})
	s.m.migRanges = r.Counter(obs.Desc{Name: "migrate.ranges", Help: "range migrations completed (epoch flipped and settled)", Unit: "ops"})
	s.m.migKeysStreamed = r.Counter(obs.Desc{Name: "migrate.keys_streamed", Help: "live values streamed to migration destinations", Unit: "keys"})
	s.m.migTombsStreamed = r.Counter(obs.Desc{Name: "migrate.tombstones_streamed", Help: "tombstones streamed to migration destinations", Unit: "keys"})
	s.m.migAborts = r.Counter(obs.Desc{Name: "migrate.aborts", Help: "migrations aborted before the epoch flip (placement restored)", Unit: "ops"})
	s.m.migPurged = r.Counter(obs.Desc{Name: "migrate.purged_keys", Help: "source copies physically dropped after a migration settled", Unit: "keys"})
	s.m.migFrozenWaits = r.Counter(obs.Desc{Name: "migrate.frozen_waits", Help: "writes parked on a frozen migration window until its flip", Unit: "ops"})
	s.m.migDualReads = r.Counter(obs.Desc{Name: "migrate.dual_reads", Help: "reads answered from the source set during a dual-read window", Unit: "ops"})
}

// registerReplicaMetrics registers the replication and anti-entropy
// families; only replicated stores export them.
func (s *Store) registerReplicaMetrics() {
	if s.replicas == 1 {
		return
	}
	r := s.reg
	op := func(v string) map[string]string { return map[string]string{"op": v} }
	s.m.replicaPut = r.Counter(obs.Desc{Name: "shard.replica_writes", Help: "per-replica write applications fanned out by the router", Unit: "ops", Labels: op("put")})
	s.m.replicaDelete = r.Counter(obs.Desc{Name: "shard.replica_writes", Help: "per-replica write applications fanned out by the router", Unit: "ops", Labels: op("delete")})
	s.m.replicaErrors = r.Counter(obs.Desc{Name: "shard.replica_errors", Help: "write fan-out legs that failed (crashed mid-op or store error)", Unit: "ops"})
	s.m.replicaFallbacks = r.Counter(obs.Desc{Name: "shard.replica_read_fallbacks", Help: "reads served by a non-primary or repairing replica", Unit: "ops"})
	// s.m.replicaReads is allocated in Open (the read path indexes it
	// even when R=1); here we only fill the elements.
	for m := 0; m < s.replicas; m++ {
		s.m.replicaReads[m] = r.Counter(obs.Desc{Name: "shard.replica_reads", Help: "reads served, by position in the key's replica set (0 = primary)", Unit: "ops",
			Labels: map[string]string{"replica": strconv.Itoa(m)}})
	}
	for j := range s.shards {
		j := j
		r.GaugeFunc(obs.Desc{Name: "shard.replica_state", Help: "replica availability: 0 up, 1 down, 2 repairing", Unit: "state",
			Labels: map[string]string{"shard": strconv.Itoa(j)}},
			func() float64 { return float64(s.state[j].Load()) })
	}
	s.m.repairPasses = r.Counter(obs.Desc{Name: "repair.passes", Help: "anti-entropy pull passes run", Unit: "passes"})
	s.m.repairKeysPulled = r.Counter(obs.Desc{Name: "repair.keys_pulled", Help: "live values re-replicated by anti-entropy", Unit: "keys"})
	s.m.repairTombsPulled = r.Counter(obs.Desc{Name: "repair.tombstones_pulled", Help: "tombstones propagated by anti-entropy", Unit: "keys"})
	s.m.repairTombsDiscarded = r.Counter(obs.Desc{Name: "repair.tombstones_discarded", Help: "tombstones dropped after the grace window", Unit: "keys"})
	s.m.repairConverged = r.Counter(obs.Desc{Name: "repair.converged", Help: "repair cycles that converged a repairing replica to up", Unit: "events"})
}

// Metrics merges the router's own snapshot with every shard's. With one
// shard the core series pass through untouched (so existing unique-name
// lookups keep working); with several, each core series gains a
// {shard=i} label and store-wide values are obtained with Snapshot.Sum.
func (s *Store) Metrics() obs.Snapshot {
	snap := s.reg.Snapshot()
	if len(s.shards) == 1 {
		snap.Metrics = append(snap.Metrics, s.shards[0].Metrics().Metrics...)
	} else {
		for i, cs := range s.shards {
			lab := strconv.Itoa(i)
			for _, m := range cs.Metrics().Metrics {
				ls := make(map[string]string, len(m.Labels)+1)
				for k, v := range m.Labels {
					ls[k] = v
				}
				ls["shard"] = lab
				m.Labels = ls
				snap.Metrics = append(snap.Metrics, m)
			}
		}
	}
	snap.Sort()
	return snap
}

// MetricsRegistry returns the router-level registry — the home for
// front-end metrics such as the RESP server's, which are store-wide
// rather than per-shard.
func (s *Store) MetricsRegistry() *obs.Registry { return s.reg }
