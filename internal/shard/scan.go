package shard

import (
	"bytes"
	"runtime"
	"slices"

	"repro/internal/core"
)

// Scan visits up to count pairs with key >= start in global key order.
//
// Hash placement scatters adjacent keys across shards, so a hash-mode
// scan is a merge — of keys, not of rows: a covering set of the shards
// walk their key indexes in parallel, the router merges the key streams,
// and each of the count winners is then read once, on one shard that
// holds it (see gather). What hash placement costs a scan is one index
// walk per asked shard and the second round of the row reads.
//
// Range placement removes both: the scan walks the boundary table in key
// order and reads each intersecting range from its owning shard only, in
// one pass that stops at the range's upper bound. Hash-owned ranges (not
// yet claimed by a migration) fall back to the bounded merge for just
// that slice of the keyspace. count <= 0 scans to the end.
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

// scanMerged is the merged scan of [start, hi) (nil hi = unbounded): the
// hash-mode Scan body, reused by range mode for hash-owned ranges. It
// returns how many pairs it emitted and whether fn stopped the scan. The
// rows are gathered whole (see gather) before the first is emitted, so a
// gather that lost a replica to a crash has shown fn nothing: with
// Replicas > 1 it is planned again from fresh replica states, at most
// writeRetries times, like a replicated write. With Replicas == 1 there is
// nobody else to ask and the shard's own error is the answer.
func (t *Thread) scanMerged(start, hi []byte, count int, fn func(kv core.KV) bool) (int, bool, error) {
	// The row slab leaves the thread while fn runs, so a scan fn issues on
	// this thread cannot overwrite the rows being yielded.
	rows := t.rows
	t.rows = nil
	defer func() {
		clear(rows) // release the values
		t.rows = rows[:0]
	}()
	var err error
	for attempt := 0; ; attempt++ {
		rows, err = t.gather(rows[:0], start, hi, count)
		if !t.s.crashed(err) || attempt >= writeRetries {
			break
		}
		runtime.Gosched()
	}
	if err != nil {
		return 0, false, err
	}
	for i, kv := range rows {
		// The key is an index's own copy (core.ScanKeys); fn gets its own.
		kv.Key = bytes.Clone(kv.Key)
		if !fn(kv) {
			return i + 1, true, nil
		}
	}
	return len(rows), false, nil
}

// scanHook is a test seam: when set, it runs in every merged scan between
// the walks' merge and the row reads — t.touched and t.subKeys say which
// shard is about to read which rows.
var scanHook func(t *Thread)

// gather appends to rows the first count pairs of [start, hi) in key order
// (count <= 0: all of them), each resolved once, keys first:
//
//   - The asked shards (see plan) run the key-index walk only, in parallel.
//   - The router merges their key streams — a key materializes on up to
//     Replicas shards, so equal heads collapse to one winner — and hands
//     each winner to one asked shard that holds it, the one with the fewest
//     rows so far when several do.
//   - Each shard resolves its rows, a key-ordered subsequence, in one
//     core.ReadRows: one overlap frame, one merged Value Storage batch
//     under the scan admission rule, like a scan of its own.
//
// A winner deleted between its walk and its read has no value; the merge
// then resumes where it stopped, over the candidates the walks already
// returned. A walk stops after as many keys as the scan still needs, so
// what follows such a walk's last key on its shard is unknown: the merge
// never passes it, and when it gets there short of count the shards walk
// again from the last key merged.
func (t *Thread) gather(rows []core.KV, start, hi []byte, count int) ([]core.KV, error) {
	if err := t.plan(); err != nil {
		return rows, err
	}
	var (
		from  = start
		walk  = true
		limit int    // the count the walks ran with; 0: to the end
		last  []byte // the last key merged
	)
	for {
		if walk {
			limit = 0
			if count > 0 {
				limit = count - len(rows)
			}
			for _, j := range t.asked {
				t.lists[j], t.pos[j] = t.lists[j][:0], 0
			}
			t.fanOut(t.asked, func(j int) {
				t.errs[j] = t.ths[j].ScanKeys(from, limit, func(key []byte) bool {
					if hi != nil && bytes.Compare(key, hi) >= 0 {
						return false
					}
					t.lists[j] = append(t.lists[j], key)
					return true
				})
			})
			if err := t.takeErrs(t.asked); err != nil {
				return rows, err
			}
			walk = false
		}

		// Merge up to the rows still needed. Shard counts are small (<=
		// MaxShards, typically single digits), so a linear min-probe beats
		// a heap's overhead.
		t.touched = t.touched[:0]
		base, dry := len(rows), false
		for count <= 0 || len(rows) < count {
			best := -1
			for _, j := range t.asked {
				switch l := t.lists[j]; {
				case t.pos[j] < len(l):
					if best < 0 || bytes.Compare(l[t.pos[j]], t.lists[best][t.pos[best]]) < 0 {
						best = j
					}
				case limit > 0 && len(l) == limit:
					dry = true // merged to the end of a walk that stopped at its limit
				}
			}
			if dry || best < 0 {
				break
			}
			last = t.lists[best][t.pos[best]]
			to := -1
			for _, j := range t.asked {
				if t.pos[j] < len(t.lists[j]) && bytes.Equal(t.lists[j][t.pos[j]], last) {
					t.pos[j]++
					if to < 0 || len(t.subKeys[j]) < len(t.subKeys[to]) {
						to = j
					}
				}
			}
			if len(t.subKeys[to]) == 0 {
				t.touched = append(t.touched, to)
			}
			t.subKeys[to] = append(t.subKeys[to], last)
			t.subIdx[to] = append(t.subIdx[to], len(rows))
			rows = append(rows, core.KV{Key: last})
		}
		if len(rows) == base {
			if !dry {
				return rows, nil // every candidate merged, every shard walked to the end
			}
			from, walk = append(bytes.Clone(last), 0), true // the least key after last
			continue
		}

		if scanHook != nil {
			scanHook(t)
		}
		t.fanOut(t.touched, func(j int) {
			t.subVals[j], t.errs[j] = t.ths[j].ReadRows(t.subKeys[j], t.subVals[j][:0])
		})
		err := t.takeErrs(t.touched)
		for _, j := range t.touched {
			if err == nil {
				for si, i := range t.subIdx[j] {
					rows[i].Value = t.subVals[j][si]
				}
			}
			t.dropSubRead(j)
		}
		if err != nil {
			return rows, err
		}
		live := rows[:base]
		for _, kv := range rows[base:] {
			if kv.Value != nil {
				live = append(live, kv)
			}
		}
		rows = live
	}
}

// plan chooses the shards a merged scan asks, into t.asked. With every
// shard up each key is on all Replicas ring-consecutive members of its
// set, so a covering set of ceil(n/Replicas) shards holds every key
// between them (see cover); its offset rotates with every scan so the
// load spreads. Otherwise the scan asks, for every replica set, the
// shards a single-key read of that set would try (see candidates): its up
// members — so every up shard is asked, and a down shard's keys are
// covered by its replicas — or, for a set with none, its repairing ones
// (during such a divergence window the surviving copy of a key is
// whichever asked shard returns it: scans are eventually consistent, like
// replicated reads); a set with no live member at all fails the scan with
// errNoReplica rather than silently omitting its keyspace. Without
// replication every shard is its own set and is asked, up or not: a
// crashed shard surfaces its error.
func (t *Thread) plan() error {
	s := t.s
	n := len(s.shards)
	t.asked = t.asked[:0]
	if s.allUp() {
		t.turn++
		t.asked = cover(n, s.replicas, t.turn%n, t.asked)
		return nil
	}
	for p := 0; p < n; p++ {
		t.rset = s.candidates(s.setOf(p, t.rset))
		if len(t.rset) == 0 {
			// Keys whose primary is p have no live replica; a scan
			// cannot serve its contract over that keyspace.
			return errNoReplica
		}
		for _, j := range t.rset {
			if !slices.Contains(t.asked, j) {
				t.asked = append(t.asked, j)
			}
		}
	}
	return nil
}

// cover appends to buf a covering set of n shards under r-way replication:
// the ceil(n/r) shards o, o+r, o+2r, ... of the ring. Consecutive members
// are at most r apart, the last and the first included, so every run of r
// ring-consecutive shards — every replica set — contains one.
func cover(n, r, o int, buf []int) []int {
	for k := 0; k < n; k += r {
		buf = append(buf, (o+k)%n)
	}
	return buf
}
