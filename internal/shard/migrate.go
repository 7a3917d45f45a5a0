package shard

// Online shard migration: moving a placement range between shards while
// the store serves traffic. The protocol is the slot-migration shape
// (catch-up → freeze → drain+delta → flip → settle), built on the same
// pull machinery as anti-entropy repair (repair.go): stamped records are
// enumerated with core.ReplicaEntriesRange and replayed onto the
// destination over the async pipeline under last-writer-wins, so a
// migration can never regress a newer write.
//
//  1. catch-up   — stream the range with foreground traffic live; the
//                  bulk of the data moves without blocking anyone.
//  2. freeze     — install a placement snapshot whose migState gates
//                  writes into the range (placeWrite spins them);
//                  reads stay live against the source.
//  3. drain+delta— flush the source shards' async pipelines, then
//                  stream what changed since the catch-up pass — only
//                  the delta, so the freeze stays brief.
//  4. flip       — install the new table (owner = destination) with the
//                  epoch bumped and the dual-read window open: a read
//                  that finds no stamp record at all on the destination
//                  set may fall back to the not-yet-purged source.
//  5. settle     — drain the source again (reads routed pre-flip), close
//                  the dual window, and purge the source's copy of the
//                  range (core.DropRange) including its stamp records,
//                  so a later migration back cannot be shadowed by
//                  stale stamps.
//
// Invariants: an acked write is either streamed before the flip (it
// carries a stamp <= the freeze, and the delta pass replays every stamp
// the destination lacks) or lands post-flip on the destination directly
// — never both lost. A crash before the flip aborts: the placement is
// restored unchanged and the destination's extra copies are harmless
// (LWW; the next attempt re-streams). A crash after the flip leaves the
// flip standing: the destination is complete by construction, and the
// unpurged source copies are unreachable garbage. Either way exactly one
// placement snapshot owns the range — no double-owner, no orphan.
//
// Replication: migrating a range moves its whole replica set — the
// destination set is the ring successor run {dst .. dst+R-1}, sources
// are enumerated from every member of the old set. Migration requires
// the full source set alive (a down source may hold the only copy of
// acked writes — the same veto repair promotion applies) and at least
// one destination member up; down destination members are skipped and
// healed later by anti-entropy repair, whose replica sets follow
// placement automatically.

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// errHashPlacement rejects placement operations on a hash-mode store.
var errHashPlacement = errors.New("prism: placement operation requires Placement \"range\"")

// hook runs the test-only migration crash point for a protocol stage
// ("catchup", "frozen", "streamed", "flipped", "settled"). Called with
// migOne/repairMu held but never migMu, so a hook may drive store ops.
func (s *Store) hook(stage string) {
	if s.migHook != nil {
		s.migHook(stage)
	}
}

// SplitRange inserts a placement boundary at key: the containing range
// splits into two halves that both keep its owner, the placement epoch
// bumps, and no data moves (ranges are routing state, not storage).
// No-op when key is already a boundary.
func (s *Store) SplitRange(key []byte) error {
	if !s.rangeMode {
		return errHashPlacement
	}
	if len(key) == 0 {
		return errors.New("prism: empty split key")
	}
	s.migOne.Lock()
	defer s.migOne.Unlock()
	p := s.pl.Load()
	nt, ok := p.tab.withSplit(key)
	if !ok {
		return nil
	}
	if nt.ranges() > maxRanges {
		return errors.New("prism: too many ranges")
	}
	s.migMu.Lock()
	s.pl.Store(&placement{epoch: p.epoch + 1, tab: nt})
	s.migMu.Unlock()
	s.m.migSplits.Inc()
	return nil
}

// ownerSet returns the replica set rooted at shard o ({o .. o+R-1} ring
// successors, matching route), or every shard for hashOwned — a
// hash-owned range's keys are spread across all shards, so all of them
// are migration sources.
func (s *Store) ownerSet(o int) []int {
	n := len(s.shards)
	if o == hashOwned {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	set := make([]int, 0, s.replicas)
	for k := 0; k < s.replicas; k++ {
		set = append(set, (o+k)%n)
	}
	return set
}

// MigrateRange moves range r — and, with Replicas > 1, its whole replica
// set — to destination shard dst via catch-up → freeze → drain+delta →
// flip → settle (see the package comment above). Hash-owned ranges
// stream from every shard, which is the online hash→range conversion
// step. Returns with the placement unchanged on any pre-flip failure
// (source crash mid-stream, store closing); after the flip the new
// placement stands. Serialized against other placement operations and
// against anti-entropy repair passes.
func (s *Store) MigrateRange(r, dst int) error {
	if !s.rangeMode {
		return errHashPlacement
	}
	if dst < 0 || dst >= len(s.shards) {
		return fmt.Errorf("prism: destination shard %d out of range", dst)
	}
	s.migOne.Lock()
	defer s.migOne.Unlock()
	// Exclude repair passes for the whole window: repair enumerates with
	// placement-derived replica sets and must not interleave with the
	// flip.
	s.repairMu.Lock()
	defer s.repairMu.Unlock()

	p := s.pl.Load()
	if r < 0 || r >= p.tab.ranges() {
		return fmt.Errorf("prism: range %d out of range", r)
	}
	src := p.tab.owner[r]
	if src == dst {
		return nil
	}
	lo, hi := p.tab.rangeBounds(r)
	srcSet := s.ownerSet(src)
	dstSet := s.ownerSet(dst)
	// A down source may hold the only copy of acked writes in the range
	// (the repair-promotion veto, repair.go); a destination set with no
	// live member has nowhere to stream to.
	for _, j := range srcSet {
		if s.state[j].Load() == replicaDown {
			return fmt.Errorf("prism: source shard %d is down: %w", j, errNoReplica)
		}
	}
	dstUp := false
	for _, j := range dstSet {
		if s.state[j].Load() != replicaDown {
			dstUp = true
			break
		}
	}
	if !dstUp {
		return fmt.Errorf("prism: destination replica set all down: %w", errNoReplica)
	}

	s.hook("catchup")
	if err := s.streamRange(srcSet, dstSet, lo, hi); err != nil {
		s.m.migAborts.Inc()
		return err
	}

	// Freeze writes into the range; reads stay on the source.
	s.migMu.Lock()
	s.pl.Store(&placement{epoch: p.epoch, tab: p.tab, mig: &migState{
		lo: lo, hi: hi, frozen: true, srcOwner: src, srcSet: srcSet, dstSet: dstSet,
	}})
	s.migMu.Unlock()
	s.hook("frozen")

	abort := func(err error) error {
		s.migMu.Lock()
		s.pl.Store(&placement{epoch: p.epoch, tab: p.tab})
		s.migMu.Unlock()
		s.m.migAborts.Inc()
		return err
	}

	// Drain writes admitted before the freeze, then stream the delta.
	s.drainShards(srcSet)
	if err := s.streamRange(srcSet, dstSet, lo, hi); err != nil {
		return abort(err)
	}
	s.hook("streamed")

	// Flip: the destination owns the range; open the dual-read window.
	nt := p.tab.withOwner(r, dst)
	s.migMu.Lock()
	s.pl.Store(&placement{epoch: p.epoch + 1, tab: nt, mig: &migState{
		lo: lo, hi: hi, dual: true, srcOwner: src, srcSet: srcSet, dstSet: dstSet,
	}})
	s.migMu.Unlock()
	s.hook("flipped")

	// Settle: drain reads routed pre-flip, close the window, purge the
	// source copies (stamp records included) outside the lock — routing
	// no longer reaches them.
	s.drainShards(srcSet)
	s.migMu.Lock()
	s.pl.Store(&placement{epoch: p.epoch + 1, tab: nt})
	s.migMu.Unlock()
	for _, j := range srcSet {
		inDst := false
		for _, d := range dstSet {
			if d == j {
				inDst = true
				break
			}
		}
		if inDst {
			continue
		}
		n := s.shards[j].DropRange(lo, hi)
		s.m.migPurged.Add(int64(n))
	}
	s.m.migRanges.Inc()
	s.hook("settled")
	return nil
}

// streamRange replays every stamped record in [lo, hi) from the source
// shards onto the destination set under LWW, mirroring RepairShard's
// pull idiom. Down destination members are skipped (anti-entropy heals
// them); any ErrClosed — a source or destination crashing mid-stream —
// aborts the stream so the caller can abort the migration.
func (s *Store) streamRange(srcSet, dstSet []int, lo, hi []byte) error {
	type ent struct {
		key  []byte
		ts   uint64
		tomb bool
	}
	for _, si := range srcSet {
		src := s.shards[si]
		var todo []ent
		src.ReplicaEntriesRange(lo, hi, func(key []byte, ts uint64, tomb bool) bool {
			todo = append(todo, ent{key: key, ts: ts, tomb: tomb})
			return true
		})
		for _, e := range todo {
			var val []byte
			if !e.tomb {
				v, err := src.Thread(0).GetAsync(e.key).Value()
				switch {
				case err == nil:
					// Re-check the stamp (repair.go): a moved stamp means a
					// newer write superseded this entry — it has its own
					// record and streams on its own terms.
					if ts2, tomb2, ok := src.ReplicaNewest(e.key); !ok || tomb2 || ts2 != e.ts {
						continue
					}
					val = v
				case errors.Is(err, core.ErrClosed):
					return err
				default:
					// Deleted or superseded since enumeration — unless the
					// record still claims this stamp lives here, in which
					// case the source lost a value it acked and the
					// migration must not proceed.
					if ts2, tomb2, ok := src.ReplicaNewest(e.key); ok && !tomb2 && ts2 == e.ts {
						return err
					}
					continue
				}
			}
			for _, di := range dstSet {
				if di == si || s.state[di].Load() == replicaDown {
					continue
				}
				dst := s.shards[di]
				if cur, _, ok := dst.ReplicaNewest(e.key); ok && cur >= e.ts {
					continue
				}
				if e.tomb {
					err := dst.Thread(0).DeleteTSAsync(e.key, e.ts).Wait()
					if err != nil && !errors.Is(err, core.ErrNotFound) {
						return err
					}
					s.m.migTombsStreamed.Inc()
					continue
				}
				if err := dst.Thread(0).PutTSAsync(e.key, val, e.ts).Wait(); err != nil {
					return err
				}
				s.m.migKeysStreamed.Inc()
			}
		}
	}
	return nil
}

// drainShards flushes every async pipeline on the given shards — the
// freeze/settle barrier that guarantees no in-flight write or read is
// still executing against a pre-transition placement. core.Thread.Flush
// is safe from any goroutine.
func (s *Store) drainShards(js []int) {
	for _, j := range js {
		cs := s.shards[j]
		for i := 0; i < cs.NumThreads(); i++ {
			cs.Thread(i).Flush()
		}
	}
}

// RebalanceRanges learns an equal-population boundary table from the
// store's live keys and migrates every range to its round-robin owner —
// the online conversion from hash-equivalent routing (zero split keys)
// to true range placement, and a rebalance for stores whose boundaries
// drifted. Placement operations in flight serialize behind it range by
// range; a failed migration aborts the remaining moves.
func (s *Store) RebalanceRanges() error {
	if !s.rangeMode {
		return errHashPlacement
	}
	var samples [][]byte
	for _, cs := range s.shards {
		samples = append(samples, cs.SampleKeys(4096/len(s.shards))...)
	}
	for _, sp := range SelectSplitKeys(samples, len(s.shards)) {
		if err := s.SplitRange(sp); err != nil {
			return err
		}
	}
	p := s.pl.Load()
	n := p.tab.ranges()
	for r := 0; r < n; r++ {
		if err := s.MigrateRange(r, r%len(s.shards)); err != nil {
			return err
		}
	}
	return nil
}
