package shard

// Online shard migration: moving a placement range between shards while
// the store serves traffic. The protocol is the slot-migration shape
// (catch-up → freeze → drain+delta → flip → settle), and both of its
// copy passes are the router's one pull path — pull (repair.go), the
// function anti-entropy repair runs: stamped records in the range that a
// destination lacks are read on the source and replayed onto the
// destination over the async pipeline under last-writer-wins, so a
// migration can never regress a newer write.
//
//  1. catch-up   — pull the range with foreground traffic live; the
//                  bulk of the data moves without blocking anyone.
//  2. freeze     — install a placement snapshot whose migState gates
//                  writes into the range (placeWrite parks them);
//                  reads stay live against the source.
//  3. drain+delta— flush the source shards' async pipelines, then pull
//                  again: pull reads only the records some destination
//                  lacks, so the freeze reads just what changed since
//                  the catch-up pass.
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
// Invariants: an acked write is either pulled before the flip (it
// carries a stamp <= the freeze, and the delta pass replays every stamp
// the destination lacks) or lands post-flip on the destination directly
// — never both lost. A crash before the flip aborts: the placement is
// restored unchanged and the destination's extra copies are harmless
// (LWW; the next attempt re-pulls). A crash after the flip leaves the
// flip standing: the destination is complete by construction, and the
// unpurged source copies are unreachable garbage. Either way exactly one
// placement snapshot owns the range — no double-owner, no orphan.
//
// Replication: migrating a range moves its whole replica set — the
// destination set is the ring successor run {dst .. dst+R-1}, sources
// are every member of the old set. Migration requires the full source
// set alive (a down source may hold the only copy of acked writes — the
// same veto repair promotion applies; a source that goes down before the
// flip fails its pull) and at least one destination member up; down
// destination members are skipped and healed later by anti-entropy
// repair, whose replica sets follow placement automatically.

import (
	"errors"
	"fmt"
	"slices"
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

// MigrateRange moves range r — and, with Replicas > 1, its whole replica
// set — to destination shard dst via catch-up → freeze → drain+delta →
// flip → settle (see the package comment above). Hash-owned ranges
// pull from every shard, which is the online hash→range conversion
// step. Returns with the placement unchanged on any pre-flip failure
// (source crash mid-pull, store closing); after the flip the new
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
	m := migState{lo: lo, hi: hi, srcOwner: src, dstSet: s.setOf(dst, nil)}
	if src == hashOwned { // a hash-owned range's keys are on every shard
		for i := range s.shards {
			m.srcSet = append(m.srcSet, i)
		}
	} else {
		m.srcSet = s.setOf(src, nil)
	}
	// A down source may hold the only copy of acked writes in the range
	// (the repair-promotion veto, repair.go); a destination set with no
	// live member has nowhere to pull to.
	for _, j := range m.srcSet {
		if s.state[j].Load() == replicaDown {
			return fmt.Errorf("prism: source shard %d is down: %w", j, errNoReplica)
		}
	}
	if !slices.ContainsFunc(m.dstSet, func(j int) bool { return s.state[j].Load() != replicaDown }) {
		return fmt.Errorf("prism: destination replica set all down: %w", errNoReplica)
	}
	// pullRange is one pass over the range from every source; any error —
	// a source or destination crashing mid-pull — aborts the migration.
	pullRange := func() error {
		for _, si := range m.srcSet {
			keys, tombs, err := s.pull(si, m.dstSet, m.contains)
			s.m.migKeysStreamed.Add(int64(keys))
			s.m.migTombsStreamed.Add(int64(tombs))
			if err != nil {
				return err
			}
		}
		return nil
	}

	s.hook("catchup")
	if err := pullRange(); err != nil {
		s.m.migAborts.Inc()
		return err
	}

	// Freeze writes into the range; reads stay on the source. Writers
	// parked on the freeze wake once the next placement is in.
	frozen := m
	frozen.frozen, frozen.thawed = true, make(chan struct{})
	s.migMu.Lock()
	s.pl.Store(&placement{epoch: p.epoch, tab: p.tab, mig: &frozen})
	s.migMu.Unlock()
	s.hook("frozen")

	abort := func(err error) error {
		s.migMu.Lock()
		s.pl.Store(&placement{epoch: p.epoch, tab: p.tab})
		s.migMu.Unlock()
		close(frozen.thawed)
		s.m.migAborts.Inc()
		return err
	}

	// Drain writes admitted before the freeze, then pull the delta.
	s.drainShards(m.srcSet)
	if err := pullRange(); err != nil {
		return abort(err)
	}
	s.hook("streamed")

	// Flip: the destination owns the range; open the dual-read window.
	nt := p.tab.withOwner(r, dst)
	dual := m
	dual.dual = true
	s.migMu.Lock()
	s.pl.Store(&placement{epoch: p.epoch + 1, tab: nt, mig: &dual})
	s.migMu.Unlock()
	close(frozen.thawed)
	s.hook("flipped")

	// Settle: drain reads routed pre-flip, close the window, purge the
	// source copies (stamp records included) outside the lock — routing
	// no longer reaches them.
	s.drainShards(m.srcSet)
	s.migMu.Lock()
	s.pl.Store(&placement{epoch: p.epoch + 1, tab: nt})
	s.migMu.Unlock()
	for _, j := range m.srcSet {
		if !slices.Contains(m.dstSet, j) {
			s.m.migPurged.Add(int64(s.shards[j].DropRange(lo, hi)))
		}
	}
	s.m.migRanges.Inc()
	s.hook("settled")
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
