package shard

import (
	"bytes"
	"errors"
	"sync"

	"repro/internal/core"
)

// Scan visits up to count pairs with key >= start in global key order.
//
// Hash placement scatters adjacent keys across shards, so a hash-mode
// scan is a k-way merge: every shard runs its own ordered scan in
// parallel (each with core's merged VS reads and SVC chaining on that
// shard), and the router merges the per-shard streams by key. Each
// shard must over-fetch up to count pairs — in the worst case the whole
// result range lives on one shard — so a merged scan reads up to
// NumShards*count candidates to emit count; that over-read is the
// documented cost of hash placement.
//
// Range placement removes the merge: the scan walks the boundary table
// in key order and reads each intersecting range from its owning shard
// only, stopping at the range's upper bound — no over-fetch, no k-way
// merge across non-owners. Hash-owned ranges (not yet claimed by a
// migration) fall back to the bounded merge for just that slice of the
// keyspace. count <= 0 scans to the end.
func (t *Thread) Scan(start []byte, count int, fn func(kv core.KV) bool) error {
	s := t.s
	s.m.routedScan.Inc()
	if s.rangeMode {
		s.migMu.RLock()
		defer s.migMu.RUnlock()
		return t.scanRange(s.pl.Load(), start, count, fn)
	}
	if len(s.shards) == 1 {
		err := t.ths[0].Scan(start, count, fn)
		t.sync(0)
		return err
	}
	s.m.scanMerges.Inc()
	_, _, err := t.scanMerged(start, nil, count, fn)
	return err
}

// scanRange walks the placement's ranges from the one containing start,
// reading each from its owner (or via a bounded merge when hash-owned)
// and emitting directly: ranges are disjoint and ordered, so per-range
// streams concatenate into global key order with no merge.
func (t *Thread) scanRange(p *placement, start []byte, count int, fn func(kv core.KV) bool) error {
	s := t.s
	s.m.rangeScans.Inc()
	tab := p.tab
	emitted := 0
	for r := tab.rangeOf(start); r < tab.ranges(); r++ {
		lo, hi := tab.rangeBounds(r)
		from := start
		if lo != nil && bytes.Compare(lo, from) > 0 {
			from = lo
		}
		remaining := 0
		if count > 0 {
			remaining = count - emitted
			if remaining <= 0 {
				return nil
			}
		}
		var n int
		var stopped bool
		var err error
		if o := tab.owner[r]; o == hashOwned {
			if len(s.shards) > 1 {
				s.m.scanMerges.Inc()
			}
			n, stopped, err = t.scanMerged(from, hi, remaining, fn)
		} else {
			n, stopped, err = t.scanOwned(o, from, hi, remaining, fn)
		}
		if err != nil {
			return err
		}
		emitted += n
		if stopped || hi == nil {
			return nil
		}
	}
	return nil
}

// scanOwned reads [from, hi) from the range's owning shard — or, with
// Replicas > 1, from the first read candidate of the owner's replica set
// (see candidates: errNoReplica when the whole set is down; with
// Replicas == 1 a crashed owner surfaces its own error). The owner's
// ordered scan stops at hi, so nothing is over-fetched.
func (t *Thread) scanOwned(owner int, from, hi []byte, count int, fn func(kv core.KV) bool) (int, bool, error) {
	s := t.s
	t.rset = s.candidates(s.setOf(owner, t.rset))
	if len(t.rset) == 0 {
		return 0, false, errNoReplica
	}
	j := t.rset[0]
	emitted := 0
	stopped := false
	err := t.ths[j].Scan(from, count, func(kv core.KV) bool {
		if hi != nil && bytes.Compare(kv.Key, hi) >= 0 {
			return false
		}
		emitted++
		if !fn(kv) {
			stopped = true
			return false
		}
		return count <= 0 || emitted < count
	})
	t.sync(j)
	return emitted, stopped, err
}

// scanMerged is the k-way merged scan over every available shard,
// bounded to [start, hi) (nil hi = unbounded): the hash-mode Scan body,
// reused by range mode for hash-owned ranges. Returns how many pairs it
// emitted and whether fn stopped the scan.
//
// With replication, it scans only available shards (down shards' keys
// are covered by their replicas) and dedupes: a key materializes on up
// to Replicas shards, so equal heads across streams collapse to one
// emission. During a divergence window (a replica mid-repair) the
// surviving copy is whichever stream sorts first — scans are eventually
// consistent, like replicated reads. Coverage is checked per replica
// set: a set with no up member contributes its repairing members
// (matching single-key Get's last-resort fallback), and a set with no
// live member at all fails the scan with errNoReplica rather than
// silently omitting its keyspace. Without replication every shard is
// scanned, so a crashed shard surfaces its error.
func (t *Thread) scanMerged(start, hi []byte, count int, fn func(kv core.KV) bool) (int, bool, error) {
	s := t.s
	n := len(s.shards)
	include := make([]bool, n)
	if s.replicas <= 1 {
		for j := range include {
			include[j] = true
		}
	} else {
		states := make([]int32, n)
		for j := range states {
			states[j] = s.state[j].Load()
			include[j] = states[j] == replicaUp
		}
		for p := 0; p < n; p++ {
			hasUp := false
			for k := 0; k < s.replicas; k++ {
				if states[(p+k)%n] == replicaUp {
					hasUp = true
					break
				}
			}
			if hasUp {
				continue
			}
			hasAny := false
			for k := 0; k < s.replicas; k++ {
				j := (p + k) % n
				if states[j] == replicaRepairing {
					include[j] = true
					hasAny = true
				}
			}
			if !hasAny {
				// Keys whose primary is p have no live replica; a scan
				// cannot serve its contract over that keyspace.
				return 0, false, errNoReplica
			}
		}
	}
	lists := make([][]core.KV, len(s.shards))
	var wg sync.WaitGroup
	for j := range s.shards {
		if !include[j] {
			continue
		}
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			t.errs[j] = t.ths[j].Scan(start, count, func(kv core.KV) bool {
				if hi != nil && bytes.Compare(kv.Key, hi) >= 0 {
					return false
				}
				lists[j] = append(lists[j], kv)
				return true
			})
		}(j)
	}
	wg.Wait()
	var err error
	for j := range s.shards {
		if !include[j] {
			continue
		}
		err = errors.Join(err, t.errs[j])
		t.errs[j] = nil
		t.sync(j)
	}
	if err != nil {
		return 0, false, err
	}
	// Merge the ordered per-shard lists. Shard counts are small (<=
	// MaxShards, typically single digits), so a linear min-probe beats a
	// heap's overhead.
	pos := make([]int, len(lists))
	emitted := 0
	for count <= 0 || emitted < count {
		best := -1
		for j := range lists {
			if pos[j] >= len(lists[j]) {
				continue
			}
			if best < 0 || bytes.Compare(lists[j][pos[j]].Key, lists[best][pos[best]].Key) < 0 {
				best = j
			}
		}
		if best < 0 {
			break
		}
		kv := lists[best][pos[best]]
		pos[best]++
		if s.replicas > 1 {
			// Skip the other replicas' copies of the emitted key.
			for j := range lists {
				for pos[j] < len(lists[j]) && bytes.Equal(lists[j][pos[j]].Key, kv.Key) {
					pos[j]++
				}
			}
		}
		emitted++
		if !fn(kv) {
			return emitted, true, nil
		}
	}
	return emitted, false, nil
}
