package lsm

import (
	"bytes"
	"sort"
)

// holdCompaction is a test seam: while it returns true the background
// loop flushes memtables but compacts nothing, so L0 grows.
var holdCompaction func(s *Store) bool

func (s *Store) backgroundLoop() {
	defer s.bg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.flushCh:
		}
		for s.flushOne() {
		}
		for (holdCompaction == nil || !holdCompaction(s)) && s.compactOne() {
			for s.flushOne() {
			}
		}
		s.em.Collect()
	}
}

func (s *Store) bump() {
	t := s.flushClk.Now()
	if c := s.compactClk.Now(); c > t {
		t = c
	}
	for {
		cur := s.stallUntil.Load()
		if t <= cur || s.stallUntil.CompareAndSwap(cur, t) {
			break
		}
	}
	s.cond.Broadcast()
}

// flushOne writes the oldest immutable memtable to L0 (an SSTable, or an
// NVM matrix run in MatrixKV mode).
func (s *Store) flushOne() bool {
	s.mu.Lock()
	if len(s.imm) == 0 {
		s.mu.Unlock()
		return false
	}
	m := s.imm[0]
	s.mu.Unlock()

	s.flushClk.AdvanceTo(s.flushReq.Load())
	entries := m.sorted()
	if s.cfg.MatrixL0 {
		run := newL0Run(entries)
		s.nvmCost.ChargeWrite(s.flushClk, int(run.bytes))
		s.mu.Lock()
		s.matrix = append([]*l0run{run}, s.matrix...)
	} else {
		di, al := s.pickDevAlloc()
		t, err := buildSSTable(s.flushClk, s.dataDevs[di], al, entries)
		s.mu.Lock()
		if err == nil && t != nil {
			s.levels[0] = append([]*SSTable{t}, s.levels[0]...)
		}
	}
	s.imm = s.imm[1:]
	s.mu.Unlock()
	s.flushes.Add(1)
	s.bump()
	return true
}

// pickDevAlloc stripes output tables across the data devices, pairing
// each with its extent allocator.
func (s *Store) pickDevAlloc() (int, *ExtentAlloc) {
	i := s.pickDev()
	return i, s.allocs[i]
}

func (s *Store) levelTarget(lvl int) int64 {
	t := s.cfg.LevelBaseBytes
	for i := 1; i < lvl; i++ {
		t *= int64(s.cfg.LevelMult)
	}
	return t
}

func (s *Store) levelSizeLocked(lvl int) int64 {
	var n int64
	for _, t := range s.levels[lvl] {
		n += t.size
	}
	return n
}

func (s *Store) deepestLevelLocked() int {
	deepest := 0
	for i := 1; i < maxLevels; i++ {
		if len(s.levels[i]) > 0 {
			deepest = i
		}
	}
	return deepest
}

// compactOne performs at most one compaction step, preferring L0.
func (s *Store) compactOne() bool {
	s.compactClk.AdvanceTo(s.flushClk.Now())
	s.mu.Lock()
	if s.cfg.MatrixL0 {
		var mbytes int64
		for _, r := range s.matrix {
			mbytes += r.bytes
		}
		if len(s.matrix) >= s.cfg.L0CompactTrigger || mbytes >= s.cfg.MatrixCap {
			s.mu.Unlock()
			s.columnCompact()
			return true
		}
	} else if len(s.levels[0]) >= s.cfg.L0CompactTrigger {
		s.mu.Unlock()
		s.compactL0()
		return true
	}
	for lvl := 1; lvl < maxLevels-1; lvl++ {
		if s.levelSizeLocked(lvl) > s.levelTarget(lvl) && len(s.levels[lvl]) > 0 {
			s.mu.Unlock()
			s.compactLevel(lvl)
			return true
		}
	}
	s.mu.Unlock()
	return false
}

// compactL0 merges every L0 table with the overlapping part of L1 — the
// whole-level rewrite whose cost MatrixKV's column compaction avoids.
func (s *Store) compactL0() {
	s.mu.Lock()
	l0 := append([]*SSTable(nil), s.levels[0]...)
	if len(l0) == 0 {
		s.mu.Unlock()
		return
	}
	minK, maxK := l0[0].minKey, l0[0].maxKey
	for _, t := range l0[1:] {
		if bytes.Compare(t.minKey, minK) < 0 {
			minK = t.minKey
		}
		if bytes.Compare(t.maxKey, maxK) > 0 {
			maxK = t.maxKey
		}
	}
	var overlap, keep []*SSTable
	for _, t := range s.levels[1] {
		if t.overlaps(minK, maxK) {
			overlap = append(overlap, t)
		} else {
			keep = append(keep, t)
		}
	}
	deepest := s.deepestLevelLocked()
	s.mu.Unlock()

	// Sources: L0 newest first (they already are), then L1.
	var sources [][]entry
	for _, t := range l0 {
		sources = append(sources, t.allEntries(s.compactClk, nil))
	}
	var l1ents []entry
	for _, t := range overlap {
		l1ents = append(l1ents, t.allEntries(s.compactClk, nil)...)
	}
	sortEntries(l1ents)
	sources = append(sources, l1ents)
	merged := mergeKeepTombs(sources, deepest > 1)

	newTables := s.buildTables(merged)
	s.mu.Lock()
	s.levels[0] = s.levels[0][:0]
	s.levels[1] = sortTables(append(keep, newTables...))
	s.mu.Unlock()
	s.retire(l0)
	s.retire(overlap)
	s.compactions.Add(1)
	s.bump()
}

// compactLevel moves one table from lvl into lvl+1.
func (s *Store) compactLevel(lvl int) {
	s.mu.Lock()
	if len(s.levels[lvl]) == 0 {
		s.mu.Unlock()
		return
	}
	// Pick the table round-robin by compaction count to avoid thrashing
	// one key range.
	victim := s.levels[lvl][int(s.compactions.Load())%len(s.levels[lvl])]
	var overlap, keepNext []*SSTable
	for _, t := range s.levels[lvl+1] {
		if t.overlaps(victim.minKey, victim.maxKey) {
			overlap = append(overlap, t)
		} else {
			keepNext = append(keepNext, t)
		}
	}
	var keepCur []*SSTable
	for _, t := range s.levels[lvl] {
		if t != victim {
			keepCur = append(keepCur, t)
		}
	}
	deepest := s.deepestLevelLocked()
	s.mu.Unlock()

	var nextEnts []entry
	for _, t := range overlap {
		nextEnts = append(nextEnts, t.allEntries(s.compactClk, nil)...)
	}
	sortEntries(nextEnts)
	merged := mergeKeepTombs([][]entry{victim.allEntries(s.compactClk, nil), nextEnts}, deepest > lvl+1)

	newTables := s.buildTables(merged)
	s.mu.Lock()
	s.levels[lvl] = sortTables(keepCur)
	s.levels[lvl+1] = sortTables(append(keepNext, newTables...))
	s.mu.Unlock()
	s.retire([]*SSTable{victim})
	s.retire(overlap)
	s.compactions.Add(1)
	s.bump()
}

// columnCompact is MatrixKV's fine-grained compaction (§2.2, §7.1): pick
// one key-range column, extract it from every matrix run on NVM, merge
// it with the overlapping L1 tables, and write only that column to the
// SSD — far smaller IO bursts than a whole-L0 rewrite.
func (s *Store) columnCompact() {
	s.mu.Lock()
	if len(s.matrix) == 0 {
		s.mu.Unlock()
		return
	}
	// Column boundaries: sample the largest run.
	largest := s.matrix[0]
	for _, r := range s.matrix {
		if len(r.ents) > len(largest.ents) {
			largest = r
		}
	}
	cols := s.cfg.MatrixColumns
	cursor := int(s.compactions.Load()) % cols
	var lo, hi []byte
	if n := len(largest.ents); n > 0 {
		if cursor > 0 {
			lo = largest.ents[n*cursor/cols].key
		}
		if cursor < cols-1 {
			hi = largest.ents[n*(cursor+1)/cols].key
		}
	}
	if lo == nil {
		lo = []byte{}
	}
	// Rebuild runs minus the column (copy-on-write: concurrent readers
	// hold the old runs via the epoch guard).
	var sources [][]entry
	newMatrix := make([]*l0run, 0, len(s.matrix))
	var colBytes int64
	for _, r := range s.matrix {
		cp := &l0run{ents: append([]entry(nil), r.ents...), bytes: r.bytes}
		col := cp.extract(lo, hi)
		if len(col) > 0 {
			sources = append(sources, col)
			for _, e := range col {
				colBytes += int64(entrySize(e))
			}
		}
		if len(cp.ents) > 0 {
			newMatrix = append(newMatrix, cp)
		}
	}
	var overlap, keep []*SSTable
	maxProbe := hi
	if maxProbe == nil {
		maxProbe = []byte("\xff\xff\xff\xff\xff\xff\xff\xff")
	}
	for _, t := range s.levels[1] {
		if t.overlaps(lo, maxProbe) {
			overlap = append(overlap, t)
		} else {
			keep = append(keep, t)
		}
	}
	deepest := s.deepestLevelLocked()
	s.mu.Unlock()

	if len(sources) == 0 && len(overlap) == 0 {
		s.mu.Lock()
		s.matrix = newMatrix
		s.mu.Unlock()
		s.compactions.Add(1)
		s.bump()
		return
	}
	s.nvmCost.ChargeRead(s.compactClk, int(colBytes))
	var l1ents []entry
	for _, t := range overlap {
		l1ents = append(l1ents, t.allEntries(s.compactClk, nil)...)
	}
	sortEntries(l1ents)
	sources = append(sources, l1ents)
	merged := mergeKeepTombs(sources, deepest > 1)

	newTables := s.buildTables(merged)
	s.mu.Lock()
	s.matrix = newMatrix
	s.levels[1] = sortTables(append(keep, newTables...))
	s.mu.Unlock()
	s.retire(overlap)
	s.compactions.Add(1)
	s.bump()
}

// buildTables splits a merged run into target-size SSTables.
func (s *Store) buildTables(merged []entry) []*SSTable {
	var out []*SSTable
	var cur []entry
	var curBytes int64
	emit := func() {
		if len(cur) == 0 {
			return
		}
		dev, alloc := s.pickDevAlloc()
		t, err := buildSSTable(s.compactClk, s.dataDevs[dev], alloc, cur)
		if err == nil && t != nil {
			out = append(out, t)
		}
		cur, curBytes = nil, 0
	}
	for _, e := range merged {
		cur = append(cur, e)
		curBytes += int64(entrySize(e))
		if curBytes >= s.cfg.TableTargetBytes {
			emit()
		}
	}
	emit()
	return out
}

// retire releases tables' extents once no reader can hold them.
func (s *Store) retire(tables []*SSTable) {
	for _, t := range tables {
		s.em.Retire(func(uint64) { t.release() }, 0)
	}
}

func sortTables(ts []*SSTable) []*SSTable {
	sort.Slice(ts, func(a, b int) bool { return bytes.Compare(ts[a].minKey, ts[b].minKey) < 0 })
	return ts
}

func sortEntries(es []entry) {
	sort.Slice(es, func(a, b int) bool { return bytes.Compare(es[a].key, es[b].key) < 0 })
}

// mergeKeepTombs merges sorted sources with precedence (earlier shadows
// later); tombstones are dropped only when dropTombs is true (compaction
// into the deepest level).
func mergeKeepTombs(sources [][]entry, keepTombs bool) []entry {
	type tagged struct {
		e    entry
		rank int
	}
	var all []tagged
	for r, src := range sources {
		for _, e := range src {
			all = append(all, tagged{e, r})
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		c := bytes.Compare(all[a].e.key, all[b].e.key)
		if c != 0 {
			return c < 0
		}
		return all[a].rank < all[b].rank
	})
	var out []entry
	for i, t := range all {
		if i > 0 && bytes.Equal(all[i-1].e.key, t.e.key) {
			continue
		}
		if t.e.tomb && !keepTombs {
			continue
		}
		out = append(out, t.e)
	}
	return out
}
