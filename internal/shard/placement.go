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
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
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
	bs := make([][]byte, 0, len(splits))
	for _, sp := range splits {
		if len(sp) == 0 {
			return nil, errors.New("prism: empty split key")
		}
		bs = append(bs, append([]byte(nil), sp...))
	}
	sort.Slice(bs, func(i, j int) bool { return bytes.Compare(bs[i], bs[j]) < 0 })
	dedup := bs[:0]
	for i, b := range bs {
		if i > 0 && bytes.Equal(b, dedup[len(dedup)-1]) {
			continue
		}
		dedup = append(dedup, b)
	}
	bs = dedup
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

// btMagic identifies an encoded boundary table.
var btMagic = []byte("PBT1")

// Encode serializes the table: magic, uvarint range count, one uvarint
// owner per range (0 = hash-owned, else shard+1), then each bound as a
// uvarint length plus bytes. The format round-trips through
// decodeBoundaryTable (FuzzBoundaryTable pins this).
func (bt *boundaryTable) Encode() []byte {
	buf := append([]byte(nil), btMagic...)
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	putUvarint(uint64(len(bt.owner)))
	for _, o := range bt.owner {
		putUvarint(uint64(o + 1))
	}
	for _, b := range bt.bounds {
		putUvarint(uint64(len(b)))
		buf = append(buf, b...)
	}
	return buf
}

// decodeBoundaryTable parses an Encode()d table, validating structure
// end to end: magic, range count in [1, maxRanges], owners within
// [hashOwned, shards), non-empty strictly increasing bounds, no trailing
// bytes.
func decodeBoundaryTable(data []byte, shards int) (*boundaryTable, error) {
	if len(data) < len(btMagic) || !bytes.Equal(data[:len(btMagic)], btMagic) {
		return nil, errors.New("prism: boundary table: bad magic")
	}
	rd := data[len(btMagic):]
	get := func() (uint64, error) {
		v, n := binary.Uvarint(rd)
		if n <= 0 {
			return 0, errors.New("prism: boundary table: truncated varint")
		}
		rd = rd[n:]
		return v, nil
	}
	nr, err := get()
	if err != nil {
		return nil, err
	}
	if nr < 1 || nr > maxRanges {
		return nil, fmt.Errorf("prism: boundary table: bad range count %d", nr)
	}
	bt := &boundaryTable{owner: make([]int, nr)}
	for i := range bt.owner {
		v, err := get()
		if err != nil {
			return nil, err
		}
		o := int(v) - 1
		if o < hashOwned || o >= shards {
			return nil, fmt.Errorf("prism: boundary table: owner %d out of range", o)
		}
		bt.owner[i] = o
	}
	for i := 0; i < int(nr)-1; i++ {
		l, err := get()
		if err != nil {
			return nil, err
		}
		if l == 0 || l > uint64(len(rd)) {
			return nil, errors.New("prism: boundary table: bad bound length")
		}
		b := append([]byte(nil), rd[:l]...)
		rd = rd[l:]
		if i > 0 && bytes.Compare(bt.bounds[i-1], b) >= 0 {
			return nil, errors.New("prism: boundary table: bounds not strictly increasing")
		}
		bt.bounds = append(bt.bounds, b)
	}
	if len(rd) != 0 {
		return nil, errors.New("prism: boundary table: trailing bytes")
	}
	return bt, nil
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
	sorted := make([][]byte, len(keys))
	copy(sorted, keys)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
	dedup := sorted[:0]
	for i, k := range sorted {
		if len(k) == 0 {
			continue
		}
		if i > 0 && len(dedup) > 0 && bytes.Equal(k, dedup[len(dedup)-1]) {
			continue
		}
		dedup = append(dedup, k)
	}
	sorted = dedup
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
// writes into the range (they spin-wait for the flip); dual marks the
// post-flip dual-read window during which a read that misses the
// destination set entirely — no stamp record at all — may fall back to
// the source set (srcSet), which has not yet been purged. dstSet is the
// destination replica set.
type migState struct {
	lo, hi   []byte
	frozen   bool
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
// by the caller) for a write to kvs' keys, spin-waiting while any of
// them sits in a frozen migration window (a batch lands in one
// placement epoch): the freeze is the short stream-the-delta phase of
// MigrateRange, and a pending flip (a writer waiting in migMu.Lock)
// blocks new RLocks, so spinners drain into the flipped epoch naturally.
// Hash mode has no guard.
func (s *Store) placeWrite(kvs ...core.KV) {
	waited := false
	for {
		s.migMu.RLock()
		if m := s.pl.Load().mig; m == nil || !m.frozen || !m.containsAny(kvs) {
			return
		}
		s.migMu.RUnlock()
		if !waited {
			waited = true
			s.m.migFrozenWaits.Inc()
		}
		runtime.Gosched()
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
