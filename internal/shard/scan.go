package shard

import (
	"bytes"
	"runtime"
	"slices"

	"repro/internal/core"
)

// Scan visits up to count pairs with key >= start in global key order.
// count <= 0 scans to the end.
//
// A scan is one loop over placement ranges: it walks the boundary table
// in key order from the range containing start and reads each range it
// intersects through one plan (see plan and gather). Ranges are disjoint
// and ordered, so the per-range streams concatenate into global key order
// with no merge between them. A hash-mode store is one hash-owned range
// over the whole keyspace (hashTable), read the way a hash-owned range of
// a range-placed store is.
//
// Within a range the plan decides the cost. An owned range asks one shard
// of its owner's set, which reads the range in its own scan. A hash-owned
// range scatters adjacent keys across shards, so it asks a covering set of
// them; when that is more than one shard the read is a merge — of keys,
// not of rows: the asked shards walk their key indexes, each on its own
// thread clock (so the walks overlap in virtual time), the router merges
// the key streams, and each winner is then read once, on one shard that
// holds it. What hash placement costs a scan is one index walk
// per asked shard and the second round of the row reads. A plan of one
// shard — a one-shard store, or a covering set of one — costs what a scan
// of a lone core store costs.
func (t *Thread) Scan(start []byte, count int, fn func(kv core.KV) bool) error {
	s := t.s
	s.m.routedScan.Inc()
	tab := hashTable
	if s.rangeMode {
		s.m.rangeScans.Inc()
		s.migMu.RLock()
		defer s.migMu.RUnlock()
		tab = s.pl.Load().tab
	}
	emitted := 0
	for r := tab.rangeOf(start); r < tab.ranges(); r++ {
		lo, hi := tab.rangeBounds(r)
		from := start
		if lo != nil && bytes.Compare(lo, from) > 0 {
			from = lo
		}
		left := 0
		if count > 0 {
			if left = count - emitted; left <= 0 {
				return nil
			}
		}
		n, stopped, err := t.scanRange(tab.owner[r], from, hi, left, fn)
		if err != nil || stopped || hi == nil {
			return err
		}
		emitted += n
	}
	return nil
}

// hashTable is a hash-mode store's placement: one hash-owned range over
// the whole keyspace. It is never installed in s.pl, so hash-mode routing
// loads no snapshot and takes no lock.
var hashTable = &boundaryTable{owner: []int{hashOwned}}

// scanRange reads [start, hi) (nil hi = unbounded) of the range owner
// owns — a shard, or hashOwned — and emits it, returning how many pairs it
// emitted and whether fn stopped the scan. The rows are gathered whole
// (see gather) before the first is emitted, so a gather that lost a
// replica to a crash has shown fn nothing: with Replicas > 1 it is planned
// again from fresh replica states, at most writeRetries times, like a
// replicated write. With Replicas == 1 there is nobody else to ask and the
// shard's own error is the answer. A read whose plan asked more than one
// shard counts shard.scan_merges.
func (t *Thread) scanRange(owner int, start, hi []byte, count int, fn func(kv core.KV) bool) (int, bool, error) {
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
		rows, err = t.gather(rows[:0], owner, start, hi, count)
		if !t.s.crashed(err) || attempt >= writeRetries {
			break
		}
		runtime.Gosched()
	}
	merged := len(t.asked) > 1
	if merged {
		t.s.m.scanMerges.Inc()
	}
	if err != nil {
		return 0, false, err
	}
	for i, kv := range rows {
		if merged {
			// The key is an index's own copy (core.ScanKeys); fn gets its own.
			kv.Key = bytes.Clone(kv.Key)
		}
		if !fn(kv) {
			return i + 1, true, nil
		}
	}
	return len(rows), false, nil
}

// scanHook is a test seam: when set, it runs in every range read once the
// plan is made, before any row is read — t.touched names the shards about
// to read rows, and in a merge t.subKeys[j] says which rows shard j reads.
var scanHook func(t *Thread)

// gather appends to rows the first count pairs of [start, hi) of owner's
// range in key order (count <= 0: all of them), each resolved once, from
// the shards plan asks. A plan of one shard reads through that shard's own
// scan (see scanOne). A plan of several merges, keys first:
//
//   - The asked shards run the key-index walk only, one after another on
//     the caller's goroutine, each on its own thread clock; the first
//     failure ends the read.
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
func (t *Thread) gather(rows []core.KV, owner int, start, hi []byte, count int) ([]core.KV, error) {
	if err := t.plan(owner); err != nil {
		return rows, err
	}
	if len(t.asked) == 1 {
		return t.scanOne(rows, start, hi, count)
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
				err := t.ths[j].ScanKeys(from, limit, func(key []byte) bool {
					if hi != nil && bytes.Compare(key, hi) >= 0 {
						return false
					}
					t.lists[j] = append(t.lists[j], key)
					return true
				})
				t.sync(j)
				if err != nil {
					return rows, err
				}
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
		var err error
		for _, j := range t.touched {
			if err == nil {
				t.subVals[j], err = t.ths[j].ReadRows(t.subKeys[j], t.subVals[j][:0])
				t.sync(j)
			}
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

// scanOne is gather over a plan of one shard: that shard's own scan of
// [start, hi), whose rows come with the index walk's HSIT slots, so none
// is looked up twice. Its rows own their keys (core clones them).
func (t *Thread) scanOne(rows []core.KV, start, hi []byte, count int) ([]core.KV, error) {
	j := t.asked[0]
	t.touched = append(t.touched[:0], j)
	if scanHook != nil {
		scanHook(t)
	}
	err := t.ths[j].Scan(start, count, func(kv core.KV) bool {
		if hi != nil && bytes.Compare(kv.Key, hi) >= 0 {
			return false
		}
		rows = append(rows, kv)
		return true
	})
	t.sync(j)
	return rows, err
}

// plan chooses the shards a range read asks, into t.asked.
//
// An owned range asks the first read candidate of its owner's set (see
// candidates): every member holds the whole range.
//
// A hash-owned range, with every shard up, asks a covering set: each key
// is on all Replicas ring-consecutive members of its set, so a covering
// set of ceil(n/Replicas) shards holds every key between them (see cover);
// its offset rotates with every plan so the load spreads. Otherwise it
// asks, for every replica set, the shards a single-key read of that set
// would try: its up members — so every up shard is asked, and a down
// shard's keys are covered by its replicas — or, for a set with none, its
// repairing ones (during such a divergence window the surviving copy of a
// key is whichever asked shard returns it: scans are eventually
// consistent, like replicated reads).
//
// Either way a set with no live member at all fails the read with
// errNoReplica rather than silently omitting its keyspace. Without
// replication every shard is its own set and is asked, up or not: a
// crashed shard surfaces its error.
func (t *Thread) plan(owner int) error {
	s := t.s
	t.asked = t.asked[:0]
	if owner != hashOwned {
		if t.rset = s.candidates(s.setOf(owner, t.rset)); len(t.rset) == 0 {
			return errNoReplica
		}
		t.asked = append(t.asked, t.rset[0])
		return nil
	}
	n := len(s.shards)
	if s.allUp() {
		t.turn++
		t.asked = cover(n, s.replicas, t.turn%n, t.asked)
		return nil
	}
	for p := 0; p < n; p++ {
		if t.rset = s.candidates(s.setOf(p, t.rset)); len(t.rset) == 0 {
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
