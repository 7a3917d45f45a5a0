package core

import (
	"errors"
	"slices"
	"sync"

	"repro/internal/hsit"
	"repro/internal/sim"
	"repro/internal/valuestore"
)

// RecoveryReport summarizes a recovery pass (§5.5, §7.6 recovery time).
type RecoveryReport struct {
	LiveKeys          int
	LostKeys          int   // index entries whose durable value was unreachable
	PWBValuesDrained  int   // live PWB values migrated to Value Storage
	VSValuesRecovered int   // validity bits rebuilt from HSIT
	VirtualNS         int64 // modeled recovery time (max over parallel workers)
}

// Crash simulates a power failure: background work stops, every device
// loses its volatile/in-flight state, and all DRAM-resident structures
// become untrustworthy. Call Recover before using the store again.
//
// The key index object survives in-process because the paper's index
// (PACTree) guarantees its own crash consistency on NVM (§5.5); this
// simulation keeps that contract by treating the index as already
// recovered.
func (s *Store) Crash() {
	if !s.closed.Swap(true) {
		// Join the admission loops before the devices lose state: a window
		// in flight completes its handles (with ErrClosed from here on).
		s.stopForeground()
		close(s.stop)
		s.bg.Wait()
	}
	if s.cache != nil {
		s.cache.Close()
		s.cache = nil
	}
	s.pop.clear() // DRAM: who read and wrote what died with the crash
	// Pending epoch retirements (free-list pushes, ring releases) are
	// volatile deferred work: a real crash loses them, and recovery
	// rebuilds their effects from durable state. Letting one fire after
	// recovery would double-apply it — e.g., double-free an HSIT slot
	// that RebuildVolatile already reissued.
	s.em.DiscardRetired()
	s.nvmDev.Crash()
	for _, d := range s.ssds {
		d.Crash()
	}
}

// Recover rebuilds all volatile state from the durable media (§5.5):
//
//  1. Scan the Persistent Key Index for reachable HSIT entries
//     (partitioned across workers, as the paper recovers "concurrently
//     for randomly partitioned key ranges").
//  2. For each reachable entry, check its pointer against its medium and
//     a PWB record's coupling (record.Coupled); an entry that fails is
//     lost. PWB values are drained into Value Storage; VS values rebuild
//     the per-chunk validity bitmaps; SVC pointers are nullified.
//  3. Unreachable HSIT entries return to the free list; PWB rings reset;
//     background threads restart.
func (s *Store) Recover() (RecoveryReport, error) {
	if !s.closed.Load() {
		return RecoveryReport{}, errors.New("prism: Recover on a running store")
	}
	var rep RecoveryReport

	// Recovery begins where the crashed incarnation stopped — the time up to
	// which it had booked the NVM channel — and VirtualNS counts from there.
	// A clock started at zero would be served in the channels' past or,
	// beyond their horizon, be pulled to it and report the store's age as
	// its recovery time.
	begin := s.nvmDev.Now()

	// Phase 1: collect (key, idx) pairs from the index.
	scanClk := sim.NewClock(begin)
	type pair struct {
		key []byte
		idx uint64
	}
	var pairs []pair
	s.index.Scan(scanClk, nil, 0, func(key []byte, idx uint64) bool {
		pairs = append(pairs, pair{key: cloneBytes(key), idx: idx})
		return true
	})

	// Phase 2: check every entry's pointer in parallel partitions, worker w
	// taking pairs w, w+workers, ...: lost[i] marks pair i's pointer as
	// outside its medium or naming an ill-coupled PWB record.
	s.vsm.BeginRecovery()
	workers := max(1, min(len(s.threads), len(pairs)))
	lost := make([]bool, len(pairs))
	pwbVals := make([][]valuestore.Move, workers)
	ends := make([]int64, workers) // when each worker finished
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clk := sim.NewClock(scanClk.Now())
			defer func() { ends[w] = clk.Now() }()
			for i := w; i < len(pairs); i += workers {
				idx := pairs[i].idx
				p := s.table.Load(clk, idx)
				switch {
				case !s.inMedium(p):
					lost[i] = true
				case p.Media == hsit.PWB:
					val, err := s.readPWB(clk, idx, p)
					lost[i] = err != nil
					if err == nil {
						pwbVals[w] = append(pwbVals[w], valuestore.Move{HSITIdx: idx, Old: p.Off, Value: val})
					}
				default:
					s.vsm.MarkRecovered(p.Off, p.Len)
				}
			}
		}()
	}
	wg.Wait()

	reach := make(map[uint64]bool)
	for i, pr := range pairs {
		if !lost[i] {
			reach[pr.idx] = true
			continue
		}
		s.index.Delete(nil, pr.key)
		// Forget the lost value's stamp too, so anti-entropy re-pulls it from
		// a peer instead of the stale stamp making this replica refuse its
		// own missing value.
		s.repl.dropLive(pr.key)
		rep.LostKeys++
	}

	// Rebuild the free-chunk lists before draining: every chunk that
	// recovered no live record is writable again.
	s.vsm.FinishRecovery()

	// Phase 3: drain live PWB values into Value Storage so the rings can
	// reset (their volatile cursors are unknown after the crash), on a
	// pass thread that starts when the slowest validator finished.
	dt := s.newThread(0, sim.NewRNG(s.opt.Seed^0x5ec0), nil, nil)
	dt.Clk.AdvanceTo(slices.Max(ends))
	drain := slices.Concat(pwbVals...)
	if !s.migrate(dt, drain, -1, false, func(*valuestore.Store) int { return 0 }) {
		return rep, errors.New("prism: no Value Storage space during recovery")
	}
	rep.PWBValuesDrained = len(drain)
	for _, b := range s.pwbs {
		b.Reset()
	}

	// Phase 4: rebuild volatile tables and restart background work.
	rep.LiveKeys = s.table.RebuildVolatile(func(idx uint64) bool { return reach[idx] }, uint64(s.table.Capacity()))
	rep.VSValuesRecovered = rep.LiveKeys - rep.PWBValuesDrained

	s.cache = s.newCache()
	s.startBackground()
	for _, t := range s.threads {
		t.async.reset()
	}
	s.closed.Store(false)
	rep.VirtualNS = dt.Clk.Now() - begin
	return rep, nil
}
