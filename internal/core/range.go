package core

// Range sampling and purge hooks for the sharding router's online range
// migration (internal/shard/migrate.go). Migration moves a key range
// through the router's one pull path, the one anti-entropy repair uses
// (shard.pull: ReplicaEntries filtered to the range, the normal read
// path, PutTSAsync/DeleteTSAsync), and then purges the source's copy of
// the range with DropRange once the placement epoch has flipped and the
// dual-read window has drained.

import "bytes"

// inRange reports lo <= key < hi; a nil bound is unbounded on that side.
func inRange(key, lo, hi []byte) bool {
	if lo != nil && bytes.Compare(key, lo) < 0 {
		return false
	}
	if hi != nil && bytes.Compare(key, hi) >= 0 {
		return false
	}
	return true
}

// SampleKeys returns up to max live keys in key order, strided evenly
// across the ordered key index — the boundary-learning input for
// split-key selection (shard.SelectSplitKeys). max <= 0 returns every
// key. Keys are safe to retain.
func (s *Store) SampleKeys(max int) [][]byte {
	if s.closed.Load() {
		return nil
	}
	s.mntMu.Lock()
	defer s.mntMu.Unlock()
	t := s.mnt
	t.Clk.AdvanceTo(s.nvmDev.Now()) // no request hands it a time: see DropRange
	n := s.index.Len()
	stride := 1
	if max > 0 && n > max {
		stride = (n + max - 1) / max
	}
	var keys [][]byte
	i := 0
	t.part.Enter()
	s.index.Scan(t.Clk, nil, 0, func(key []byte, _ uint64) bool {
		if i%stride == 0 {
			keys = append(keys, cloneBytes(key))
		}
		i++
		return true
	})
	t.part.Exit()
	return keys
}

// DropRange physically deletes every live key in [lo, hi) (nil bounds
// unbounded) and forgets the range's stamp records, live and tombstone
// alike. It is the migration purge: after the placement epoch flips, the
// source shards no longer own the range, so their copies — and their
// stamps, which would otherwise shadow the destination during a future
// migration back — are garbage. Runs on the store's dedicated
// maintenance thread, from the NVM channel's present, so it is safe
// concurrently with foreground and async work on other Thread handles
// and competes with it in virtual time. Returns the number of live keys
// removed; a closed store drops nothing (the leftover copies are benign:
// routing no longer reaches them).
func (s *Store) DropRange(lo, hi []byte) int {
	if s.closed.Load() {
		return 0
	}
	s.mntMu.Lock()
	defer s.mntMu.Unlock()
	t := s.mnt
	t.Clk.AdvanceTo(s.nvmDev.Now())

	var keys [][]byte
	t.part.Enter()
	s.index.Scan(t.Clk, lo, 0, func(key []byte, _ uint64) bool {
		if hi != nil && bytes.Compare(key, hi) >= 0 {
			return false
		}
		keys = append(keys, cloneBytes(key))
		return true
	})
	t.part.Exit()

	n := 0
	for _, k := range keys {
		if s.closed.Load() {
			break
		}
		t.part.Enter()
		err := t.deleteStep(k, 0)
		t.part.Exit()
		if err == nil {
			n++
		}
	}

	r := s.repl
	r.mu.Lock()
	for k := range r.live {
		if inRange([]byte(k), lo, hi) {
			delete(r.live, k)
		}
	}
	for k := range r.tomb {
		if inRange([]byte(k), lo, hi) {
			delete(r.tomb, k)
		}
	}
	r.mu.Unlock()
	return n
}
