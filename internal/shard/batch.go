package shard

import (
	"cmp"
	"runtime"
	"slices"

	"repro/internal/core"
)

// PutBatch partitions kvs over the shard sets of their keys — each
// entry goes to every live replica of its key, stamped individually
// from one block drawn for the whole batch — and applies the per-shard
// sub-batches one after another on the caller's goroutine, each on its
// shard's own thread clock. Each sub-batch goes through core.PutBatchTS,
// so the one-epoch-enter / one-publish-window amortization holds per
// shard: a batch of B keys touching S shards costs at most S epoch
// enters.
//
// Ordering and durability: partitioning preserves input order within a
// shard, and duplicate keys route to the same shards (with increasing
// stamps), so the later of two duplicate entries still wins. Core's
// prefix-durability guarantee holds per shard only — after a crash,
// different shards may have persisted different prefixes of their
// sub-batches. An entry is acknowledged if at least one of its
// replicas' sub-batches succeeded; the batch fails if any entry went
// wholly unacknowledged. In range mode the batch runs under the
// placement guard, so it lands in one placement epoch.
func (t *Thread) PutBatch(kvs []core.KV) error {
	s := t.s
	if len(kvs) == 0 {
		return nil
	}
	s.m.batchPut.Inc()
	if s.rangeMode {
		s.placeWrite(kvs...)
		defer s.migMu.RUnlock()
	}
	first := s.stampBlock(len(kvs))
	for attempt := 0; ; attempt++ {
		if retry, err := t.putBatchOnce(kvs, first, attempt); !retry {
			return err
		}
		runtime.Gosched()
	}
}

// putBatchOnce is one partition → fan-out → fold round of PutBatch: each
// sub-batch is a leg of one verdict (replica.go), and the batch
// acknowledges when every entry is covered — at least one of its
// replicas' sub-batches fully succeeded (a failed sub-batch may have
// applied a prefix, but only full success counts). Coverage is checked
// even with no failed leg: an entry whose entire replica set was down was
// never partitioned into any sub-batch and must surface errNoReplica.
func (t *Thread) putBatchOnce(kvs []core.KV, first uint64, attempt int) (retry bool, err error) {
	s := t.s
	t.touched = t.touched[:0]
	for i := range kvs {
		t.rset = s.route(kvs[i].Key, t.rset)
		for _, j := range t.rset {
			if s.skipDown(j) {
				continue
			}
			if len(t.subPut[j]) == 0 {
				t.touched = append(t.touched, j)
			}
			t.subPut[j] = append(t.subPut[j], kvs[i])
			t.subIdx[j] = append(t.subIdx[j], i)
			if first != 0 {
				t.subTS[j] = append(t.subTS[j], first+uint64(i))
			}
		}
	}
	s.m.fanout.Record(int64(len(t.touched)))
	if len(t.touched) > 1 {
		s.m.crossPut.Inc()
	}
	if cap(t.cov) < len(kvs) {
		t.cov = make([]bool, len(kvs))
	}
	cov := t.cov[:len(kvs)]
	clear(cov)
	v := verdict{s: s}
	for _, j := range t.touched {
		err := t.ths[j].PutBatchTS(t.subPut[j], t.subTS[j])
		t.sync(j)
		v.leg(j, len(t.subPut[j]), false, err)
		if err == nil {
			for _, i := range t.subIdx[j] {
				cov[i] = true
			}
		}
		clear(t.subPut[j]) // release caller references
		t.subPut[j] = t.subPut[j][:0]
		t.subIdx[j] = t.subIdx[j][:0]
		t.subTS[j] = t.subTS[j][:0]
	}
	v.acked = !slices.Contains(cov, false)
	return v.answer(attempt)
}

// dropSubRead empties shard j's sub-read scratch — a MultiGet's or a
// merged scan's keys, values and positions — releasing what it referenced.
func (t *Thread) dropSubRead(j int) {
	clear(t.subKeys[j])
	clear(t.subVals[j])
	t.subKeys[j], t.subVals[j], t.subIdx[j] = t.subKeys[j][:0], t.subVals[j][:0], t.subIdx[j][:0]
}

// MultiGet resolves keys across shards and returns one value per key in
// input order, nil marking a missing key (see core.MultiGet).
func (t *Thread) MultiGet(keys [][]byte) ([][]byte, error) {
	return t.MultiGetInto(keys, make([][]byte, 0, len(keys)))
}

// MultiGetInto is MultiGet appending into vals (one entry per key, nil
// = missing), returning the extended slice. Keys are partitioned by the
// preferred read replica of each (see candidates), the per-shard
// sub-reads run one after another on the caller's goroutine (each a
// single epoch-scoped pass with merged VS read extents on its shard, on
// that shard's own thread clock), and results scatter back to the input
// positions — the merged output order always matches the key order
// given, regardless of fan-out. Keys whose shard turns out to be closed
// are rerouted in a further round; unlike the single-key path there is
// no per-key miss fallback: a key missing on its preferred replica is
// reported missing, matching MultiGet's semantics of one consistent
// pass. The first failure is the answer. Range-mode reads need only a
// stable placement snapshot — no dual-window fallback here: the
// destination set is complete from the flip onward, so owner answers are
// authoritative.
func (t *Thread) MultiGetInto(keys [][]byte, vals [][]byte) ([][]byte, error) {
	s := t.s
	if s.rangeMode {
		s.migMu.RLock()
		defer s.migMu.RUnlock()
	}
	base := len(vals)
	for range keys {
		vals = append(vals, nil)
	}
	if len(keys) == 0 {
		return vals, nil
	}
	s.m.batchGet.Inc()
	t.rem = t.rem[:0]
	for i := range keys {
		t.rem = append(t.rem, i)
	}
	var err error
	for round := 0; round <= s.replicas && len(t.rem) > 0; round++ {
		t.touched = t.touched[:0]
		dead := false
		for _, i := range t.rem {
			t.rset = s.candidates(s.route(keys[i], t.rset))
			if len(t.rset) == 0 {
				dead = true
				continue
			}
			j := t.rset[0]
			if len(t.subKeys[j]) == 0 {
				t.touched = append(t.touched, j)
			}
			t.subKeys[j] = append(t.subKeys[j], keys[i])
			t.subIdx[j] = append(t.subIdx[j], i)
		}
		t.rem = t.rem[:0]
		if dead {
			err = cmp.Or(err, errNoReplica)
		}
		if len(t.touched) == 0 {
			break
		}
		if round == 0 {
			s.m.fanout.Record(int64(len(t.touched)))
		}
		if len(t.touched) > 1 {
			s.m.crossGet.Inc()
		}
		for _, j := range t.touched {
			var jerr error
			t.subVals[j], jerr = t.ths[j].MultiGetInto(t.subKeys[j], t.subVals[j][:0])
			t.sync(j)
			switch {
			case jerr == nil:
				for si, i := range t.subIdx[j] {
					vals[base+i] = t.subVals[j][si]
				}
			case s.crashed(jerr):
				// Shard crashed underneath us: the next round re-reads
				// the states and routes these keys to a live replica.
				t.rem = append(t.rem, t.subIdx[j]...)
			default:
				err = cmp.Or(err, jerr)
			}
			t.dropSubRead(j)
		}
	}
	if len(t.rem) > 0 {
		err = cmp.Or(err, errNoReplica)
	}
	return vals, err
}
