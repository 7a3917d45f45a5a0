package shard

// Range-partitioned placement (Options.Placement == "range"): a boundary
// table of split keys divides the keyspace into contiguous ranges, each
// owned by one shard (or left hash-owned, routing by jump hash until a
// migration claims it). Routing stays a pure lookup — binary search over
// the sorted bounds — so single-key ops cost one search plus one method
// call, and Scan walks only the ranges that intersect the request
// instead of merging every shard's index walk.
//
// The table lives in an immutable placement snapshot swapped atomically
// under migMu (see migrate.go for the freeze → stream → flip protocol).
// Hash mode (the default) never allocates a placement and takes no
// locks: its routing is bit-for-bit the pre-placement code path, and its
// scans walk a static table of one hash-owned range (hashTable, scan.go).

import (
	"bytes"
	"errors"
	"slices"
	"sort"

	"repro/internal/core"
)

// hashOwned marks a range still routed by jump hash — the bridge that
// lets a range store open with zero split keys (routing then equals hash
// placement exactly) and convert online via RebalanceRanges.
const hashOwned = -1

// maxRanges bounds the boundary table; each range is only three words of
// routing state, so the cap just guards absurd split storms.
const maxRanges = 4096

// boundaryTable maps keys to ranges: bounds is the sorted, strictly
// increasing list of split keys, and range i covers [bounds[i-1],
// bounds[i]) with nil edges unbounded — len(owner) == len(bounds)+1.
// owner[i] is the shard owning range i, or hashOwned. A table is
// immutable once installed; mutations clone.
type boundaryTable struct {
	bounds [][]byte
	owner  []int
}

// newBoundaryTable builds the Open-time table: splits are cloned,
// sorted, and deduplicated; with no splits the single all-covering range
// is hash-owned, otherwise ranges are assigned round-robin.
func newBoundaryTable(splits [][]byte, shards int) (*boundaryTable, error) {
	if slices.ContainsFunc(splits, func(sp []byte) bool { return len(sp) == 0 }) {
		return nil, errors.New("prism: empty split key")
	}
	bs := sortedUnique(splits)
	for i, b := range bs {
		bs[i] = bytes.Clone(b)
	}
	if len(bs)+1 > maxRanges {
		return nil, errors.New("prism: too many split keys")
	}
	bt := &boundaryTable{bounds: bs, owner: make([]int, len(bs)+1)}
	if len(bs) == 0 {
		bt.owner[0] = hashOwned
	} else {
		for i := range bt.owner {
			bt.owner[i] = i % shards
		}
	}
	return bt, nil
}

// ranges returns the number of ranges.
func (bt *boundaryTable) ranges() int { return len(bt.owner) }

// rangeOf returns the index of the range containing key: the number of
// bounds <= key, so a key equal to a split belongs to the right-hand
// range (lower bounds are inclusive).
func (bt *boundaryTable) rangeOf(key []byte) int {
	return sort.Search(len(bt.bounds), func(i int) bool {
		return bytes.Compare(bt.bounds[i], key) > 0
	})
}

// rangeBounds returns range r's [lo, hi) bounds; nil means unbounded.
func (bt *boundaryTable) rangeBounds(r int) (lo, hi []byte) {
	if r > 0 {
		lo = bt.bounds[r-1]
	}
	if r < len(bt.bounds) {
		hi = bt.bounds[r]
	}
	return lo, hi
}

// withOwner clones the table with range r's owner replaced.
func (bt *boundaryTable) withOwner(r, o int) *boundaryTable {
	nt := &boundaryTable{bounds: bt.bounds, owner: append([]int(nil), bt.owner...)}
	nt.owner[r] = o
	return nt
}

// withSplit clones the table with a boundary inserted at key, splitting
// the containing range into two halves that both keep its owner. Returns
// ok=false when key is already a boundary.
func (bt *boundaryTable) withSplit(key []byte) (*boundaryTable, bool) {
	r := bt.rangeOf(key)
	if r > 0 && bytes.Equal(bt.bounds[r-1], key) {
		return nil, false
	}
	nb := make([][]byte, 0, len(bt.bounds)+1)
	nb = append(nb, bt.bounds[:r]...)
	nb = append(nb, append([]byte(nil), key...))
	nb = append(nb, bt.bounds[r:]...)
	no := make([]int, 0, len(bt.owner)+1)
	no = append(no, bt.owner[:r+1]...)
	no = append(no, bt.owner[r:]...)
	return &boundaryTable{bounds: nb, owner: no}, true
}

// SelectSplitKeys picks up to n-1 split keys dividing the sampled keys
// into n roughly equal-population ranges — the boundary-learning step
// behind RebalanceRanges (samples come from core.SampleKeys). The input
// is not mutated; the result is sorted, strictly increasing, and a
// subset of the (deduplicated) samples.
func SelectSplitKeys(keys [][]byte, n int) [][]byte {
	if n <= 1 || len(keys) == 0 {
		return nil
	}
	sorted := sortedUnique(keys)
	if len(sorted) > 0 && len(sorted[0]) == 0 {
		sorted = sorted[1:] // the empty key bounds nothing: skip it
	}
	var splits [][]byte
	for i := 1; i < n; i++ {
		idx := i * len(sorted) / n
		if idx <= 0 || idx >= len(sorted) {
			continue
		}
		k := sorted[idx]
		if len(splits) > 0 && bytes.Equal(k, splits[len(splits)-1]) {
			continue
		}
		splits = append(splits, append([]byte(nil), k...))
	}
	return splits
}

// sortedUnique returns keys sorted and deduplicated, in a new slice that
// shares their bytes.
func sortedUnique(keys [][]byte) [][]byte {
	s := slices.Clone(keys)
	slices.SortFunc(s, bytes.Compare)
	return slices.CompactFunc(s, bytes.Equal)
}

// placement is the router's immutable placement snapshot: the epoch
// (bumped on every split and flip), the boundary table, and the
// migration window state (nil when no migration is in flight). A new
// snapshot is installed only under migMu.Lock; range-mode ops hold
// migMu.RLock for their duration, so the snapshot they loaded stays the
// installed one until they finish.
type placement struct {
	epoch uint64
	tab   *boundaryTable
	mig   *migState
}

// migState describes the migration window over [lo, hi). frozen gates
// writes into the range: they park on thawed, which MigrateRange closes
// once it has installed the next placement (the flip, or the abort's
// restore); dual marks the
// post-flip dual-read window during which a read that misses the
// destination set entirely — no stamp record at all — may fall back to
// the source set (srcSet), which has not yet been purged. dstSet is the
// destination replica set.
type migState struct {
	lo, hi   []byte
	frozen   bool
	thawed   chan struct{}
	dual     bool
	srcOwner int // pre-flip owner; hashOwned when converting a hash range
	srcSet   []int
	dstSet   []int
}

// contains reports whether key falls in the migration window.
func (m *migState) contains(key []byte) bool {
	if m.lo != nil && bytes.Compare(key, m.lo) < 0 {
		return false
	}
	if m.hi != nil && bytes.Compare(key, m.hi) >= 0 {
		return false
	}
	return true
}

// containsAny reports whether any of kvs' keys falls in the window.
func (m *migState) containsAny(kvs []core.KV) bool {
	for i := range kvs {
		if m.contains(kvs[i].Key) {
			return true
		}
	}
	return false
}

// shardFor routes key under this placement snapshot: the owning shard of
// its range, or jump hash for hash-owned ranges.
func (p *placement) shardFor(s *Store, key []byte) int {
	if o := p.tab.owner[p.tab.rangeOf(key)]; o != hashOwned {
		return o
	}
	return s.hashShard(key)
}

// PlacementMode returns "hash" or "range".
func (s *Store) PlacementMode() string {
	if s.rangeMode {
		return "range"
	}
	return "hash"
}

// PlacementEpoch returns the current placement epoch — bumped by every
// split and every migration flip — or 0 in hash mode.
func (s *Store) PlacementEpoch() uint64 {
	if p := s.pl.Load(); p != nil {
		return p.epoch
	}
	return 0
}

// Ranges returns the number of placement ranges (1 in hash mode's
// degenerate view).
func (s *Store) Ranges() int {
	if p := s.pl.Load(); p != nil {
		return p.tab.ranges()
	}
	return 1
}

// RangeOwner returns the shard owning range r, or -1 when the range is
// hash-owned (or the store is in hash mode).
func (s *Store) RangeOwner(r int) int {
	if p := s.pl.Load(); p != nil && r >= 0 && r < p.tab.ranges() {
		return p.tab.owner[r]
	}
	return hashOwned
}

// RangeBounds returns range r's [lo, hi) bounds; nil bounds are
// unbounded.
func (s *Store) RangeBounds(r int) (lo, hi []byte) {
	if p := s.pl.Load(); p != nil && r >= 0 && r < p.tab.ranges() {
		return p.tab.rangeBounds(r)
	}
	return nil, nil
}

// placeWrite acquires the range-mode write guard (migMu.RLock, released
// by the caller) for a write to kvs' keys, blocking while any of them
// sits in a frozen migration window (a batch lands in one placement
// epoch): the freeze is the short stream-the-delta phase of
// MigrateRange, and the window's thawed closes once the next placement
// is installed, so parked writers retry in the flipped (or restored)
// epoch. Hash mode has no guard.
func (s *Store) placeWrite(kvs ...core.KV) {
	waited := false
	for {
		s.migMu.RLock()
		m := s.pl.Load().mig
		if m == nil || !m.frozen || !m.containsAny(kvs) {
			return
		}
		s.migMu.RUnlock()
		if !waited {
			waited = true
			s.m.migFrozenWaits.Inc()
		}
		<-m.thawed
	}
}

// dualWindow returns the migration whose dual-read window is open over
// key, or nil. The caller holds migMu.RLock.
func (s *Store) dualWindow(key []byte) *migState {
	if m := s.pl.Load().mig; m != nil && m.dual && m.contains(key) {
		return m
	}
	return nil
}

// dualSource returns the source shard a read of key falls back to in m's
// dual-read window: the pre-flip owner's first live set member, or the
// key's jump shard when the range was hash-owned. It returns -1 when no
// source is live, or when any destination-set member holds a stamp record
// for key, live or tombstone: the owner's answer is then authoritative —
// every migrated key has one (streamed under its stamp), and a tombstone
// recorded there must not resurrect from the source. Stamp records are
// modeled NVM-resident, so they stay readable even while the member's
// devices are crashed.
func (s *Store) dualSource(m *migState, key []byte) int {
	for _, di := range m.dstSet {
		if _, _, ok := s.shards[di].ReplicaNewest(key); ok {
			return -1
		}
	}
	src := m.srcSet
	if m.srcOwner == hashOwned { // src is every shard, in order
		j := s.hashShard(key)
		src = src[j : j+1]
	}
	for _, si := range src {
		if s.state[si].Load() != replicaDown {
			return si
		}
	}
	return -1
}
