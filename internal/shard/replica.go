package shard

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Replica placement and the replicated operation paths. Placement rides
// the existing jump-hash ring: a key's replica set is its jump primary
// plus the next Replicas-1 shards in ring order, so Replicas=1
// degenerates to plain sharding and growing the shard count still moves
// only ~1/n of (primary) placements.
//
// Every write draws one store-wide logical timestamp (Store.stamp) and
// applies it on each replica through core's last-writer-wins TS layer,
// which makes the fan-out idempotent and replica repair a pure
// "pull anything newer" pass (repair.go).

// Per-shard replica states. A shard is born up; CrashShard marks it
// down (writes skip it, reads route around it); RecoverShard moves it
// to repairing (it accepts new writes and repair pulls, but reads avoid
// it — it may still be missing history); a converged repair pass marks
// it up again. Exported via ReplicaState and the shard.replica_state
// gauge.
const (
	replicaUp        = int32(0)
	replicaDown      = int32(1)
	replicaRepairing = int32(2)
)

// errNoReplica reports an operation that found no live replica at all —
// every shard in the key's set was crashed.
var errNoReplica = errors.New("prism: no live replica for key")

// Replicas returns the replica factor (1 = unreplicated).
func (s *Store) Replicas() int { return s.replicas }

// ReplicaState reports shard j's availability state: 0 up, 1 down
// (crashed), 2 repairing (recovered, anti-entropy still converging).
func (s *Store) ReplicaState(j int) int { return int(s.state[j].Load()) }

func (s *Store) setState(j int, st int32) { s.state[j].Store(st) }

// allUp reports whether every shard is up.
func (s *Store) allUp() bool {
	for j := range s.state {
		if s.state[j].Load() != replicaUp {
			return false
		}
	}
	return true
}

// Replica states change only through CrashShard, RecoverShard,
// repair-pass promotion, and markNeedsRepair's up→repairing demotion —
// never otherwise from operation paths. An operation that observes
// ErrClosed treats the replica as unavailable for that attempt
// (CrashShard stores the down state before crashing the shard, so a
// fresh state read is authoritative); writing the down state from the
// observer would race a concurrent RecoverShard and wedge a healthy
// replica down.

// markNeedsRepair demotes an up replica that failed a write with a
// non-closed error to repairing and kicks the anti-entropy worker: the
// other replicas may have acknowledged that write, and an up-but-missed
// replica would otherwise stay divergent forever (states never change
// on their own). The CAS only moves up→repairing, so it cannot race
// CrashShard (down wins: CrashShard stores down before crashing) or
// resurrect a down replica. A lone replica (R=1) has no peer to diverge
// from or repair against, so it is never demoted.
func (s *Store) markNeedsRepair(j int) {
	if s.replicas == 1 || !s.state[j].CompareAndSwap(replicaUp, replicaRepairing) {
		return
	}
	select {
	case s.repairCh <- j:
	default: // worker already has a kick pending; it re-scans states
	}
}

// writeRetries bounds the re-attempts a replicated operation — sync or
// async, write or read — makes when a replica crashes underneath it:
// each retry re-reads the replica states, so an op racing a
// crash/recover transition lands on whichever replicas are now live
// instead of failing spuriously.
const writeRetries = 4

// route appends key's shard set to buf (reused scratch): the set of its
// placement owner (ShardOf: boundary table in range mode, jump hash
// otherwise). Every routed single-key operation starts here.
func (s *Store) route(key []byte, buf []int) []int { return s.setOf(s.ShardOf(key), buf) }

// setOf appends owner's replica set to buf: the owner first, then its R-1
// ring successors. With R=1 the set is the one owning shard.
func (s *Store) setOf(owner int, buf []int) []int {
	buf = buf[:0]
	for k := 0; k < s.replicas; k++ {
		buf = append(buf, (owner+k)%len(s.shards))
	}
	return buf
}

// stampBlock draws n consecutive logical timestamps and returns the
// first, or 0 — core's plain unstamped operation — when neither
// replication nor range placement needs stamps. Stamps are store-wide
// and strictly increasing; they order writes for last-writer-wins
// reconciliation, not for linearizability (which single-key ops get
// from the per-key stripe serialization in core).
func (s *Store) stampBlock(n int) uint64 {
	if !s.stamped {
		return 0
	}
	return s.stamps.Add(uint64(n)) - uint64(n) + 1
}

func (s *Store) stamp() uint64 { return s.stampBlock(1) }

// skipDown reports (and counts) a write leg skipped because its replica
// is down; repair converges it later. A lone replica is never skipped:
// there is nowhere to route around it, so its own error is the answer.
func (s *Store) skipDown(j int) bool {
	if s.replicas == 1 || s.state[j].Load() != replicaDown {
		return false
	}
	s.m.replicaSkips.Inc()
	return true
}

// crashed reports whether err is a replica crashing underneath the
// operation — retryable on the key's other replicas with fresh states
// (CrashShard stores the down state before crashing the shard). With
// R=1 there is no other replica and ErrClosed is simply the result.
func (s *Store) crashed(err error) bool {
	return s.replicas > 1 && errors.Is(err, core.ErrClosed)
}

// candidates filters set in place down to the replicas a read should
// try, in set order: the up ones, or — only when none is up, as a last
// resort against total unavailability — the repairing ones (they may
// still be missing history). Safe against resurrecting deletes: an
// acknowledged delete reached every replica that was up, and a replica
// that missed it must pass through repair — where the tombstone
// propagates — before it is preferred again. A lone replica is always
// its key's candidate.
func (s *Store) candidates(set []int) []int {
	if len(set) == 1 {
		return set
	}
	for _, want := range [...]int32{replicaUp, replicaRepairing} {
		out := set[:0] // nothing is overwritten unless this pass matches
		for _, j := range set {
			if s.state[j].Load() == want {
				out = append(out, j)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	return set[:0]
}

// verdict folds one routed write's per-replica outcomes — a leg per
// replica attempted, or per PutBatch sub-batch — into its answer. Every
// write path folds through leg, so the rules live here once:
//   - the write acknowledges when at least one replica accepted it;
//   - a delete reports ErrNotFound when no replica removed a live value;
//   - a failed leg counts shard.replica_errors and demotes its replica to
//     repairing (markNeedsRepair), unless it found the replica closed —
//     the crash takes it down — or core rejected the input (an oversized
//     value): that is the op's answer, not a replica fault;
//   - an acking leg counts shard.replica_writes, one per write it carried;
//   - when every attempted leg found its replica closed, the op raced a
//     crash and retries with fresh states under the same stamp (partial
//     applications are idempotent), up to writeRetries.
type verdict struct {
	s      *Store
	del    bool
	acked  bool  // some replica accepted
	found  bool  // some replica removed a live value (deletes)
	closed bool  // some leg found its replica closed (R > 1)
	err    error // the first failure that is the op's answer
}

// leg folds shard j's outcome for the n writes it carried. found is a
// delete's "removed a live value". An async delete's ErrNotFound — a
// tombstone recorded for an absent key — folds as found=false, err=nil,
// which is core.DeleteTS's mapping.
func (v *verdict) leg(j, n int, found bool, err error) {
	s := v.s
	switch {
	case err == nil || errors.Is(err, core.ErrNotFound):
		v.acked = true
		v.found = v.found || found
		if v.del {
			s.m.replicaDelete.Add(int64(n))
		} else {
			s.m.replicaPut.Add(int64(n))
		}
	case s.crashed(err):
		s.m.replicaErrors.Inc()
		v.closed = true
	default:
		if !errors.Is(err, core.ErrValueTooLarge) {
			s.m.replicaErrors.Inc()
			s.markNeedsRepair(j)
		}
		if v.err == nil {
			v.err = err
		}
	}
}

// answer is the write's result after attempt (counting from 0), or retry.
func (v *verdict) answer(attempt int) (retry bool, err error) {
	switch {
	case v.acked && v.del && !v.found:
		return false, core.ErrNotFound
	case v.acked:
		return false, nil
	case v.err != nil:
		return false, v.err
	case v.closed && attempt < writeRetries:
		return true, nil
	}
	return false, errNoReplica
}

// write is the sync write path, Put or (del) Delete: one stamp, a leg on
// every live member of the key's set, run on this thread's clock. In
// range mode it runs under the placement guard (a frozen migration window
// parks it until the flip).
func (t *Thread) write(key, value []byte, del bool) error {
	s := t.s
	if s.rangeMode {
		s.placeWrite(core.KV{Key: key})
		defer s.migMu.RUnlock()
	}
	ts := s.stamp()
	for attempt := 0; ; attempt++ {
		v := verdict{s: s, del: del}
		t.rset = s.route(key, t.rset)
		for _, j := range t.rset {
			if s.skipDown(j) {
				continue
			}
			var found bool
			var err error
			if del {
				found, err = t.ths[j].DeleteTS(key, ts)
			} else {
				err = t.ths[j].PutTS(key, value, ts)
			}
			t.sync(j)
			v.leg(j, 1, found, err)
		}
		if retry, err := v.answer(attempt); !retry {
			return err
		}
		runtime.Gosched()
	}
}

// writeAsync is the async write path. A lone replica's handle is the
// result itself: no proxy, no copy. With R > 1 the legs' completions fold
// into one proxy handle (see pendingWrite). Safe from any goroutine (it
// touches no router-thread scratch).
func (t *Thread) writeAsync(key, value []byte, del bool) *core.Handle {
	s := t.s
	if s.replicas > 1 {
		kv := append(append(make([]byte, 0, len(key)+len(value)), key...), value...)
		w := &pendingWrite{t: t, key: kv[:len(key):len(key)], val: kv[len(key):], v: verdict{del: del}}
		var ph *core.Handle
		ph, w.resolve = core.NewProxyHandle()
		w.send()
		return ph
	}
	if s.rangeMode {
		s.placeWrite(core.KV{Key: key})
		defer s.migMu.RUnlock()
	}
	j, ts := s.ShardOf(key), s.stamp()
	if del {
		return t.ths[j].DeleteTSAsync(key, ts)
	}
	return t.ths[j].PutTSAsync(key, value, ts)
}

// pendingWrite is one replicated async write in flight. Its legs fold
// into the verdict as they complete; the last one resolves the caller's
// handle at the slowest leg's completion time — or, when the verdict says
// retry, sends every leg again under fresh states and the same stamp.
type pendingWrite struct {
	t        *Thread
	key, val []byte // copies: a retry sends them again
	ts       uint64 // drawn once, under the first send's guard
	resolve  func([]byte, error, int64)
	left     atomic.Int32 // legs in flight, plus the sender's own count
	attempt  int

	mu  sync.Mutex // guards the fold of concurrently landing legs
	v   verdict
	end int64
}

// send submits one attempt: a leg on every live member of the key's set,
// under the placement guard in range mode. A retry runs it on a goroutine
// of its own, since the guard may park it.
func (w *pendingWrite) send() {
	t, s := w.t, w.t.s
	if s.rangeMode {
		s.placeWrite(core.KV{Key: w.key})
		defer s.migMu.RUnlock()
	}
	if w.ts == 0 {
		w.ts = s.stamp()
	}
	w.v = verdict{s: s, del: w.v.del}
	w.left.Store(1)
	var buf [4]int
	for _, j := range s.route(w.key, buf[:0]) {
		if s.skipDown(j) {
			continue
		}
		var h *core.Handle
		if w.v.del {
			h = t.ths[j].DeleteTSAsync(w.key, w.ts)
		} else {
			h = t.ths[j].PutTSAsync(w.key, w.val, w.ts)
		}
		w.left.Add(1)
		h.OnDone(func(h *core.Handle) { w.land(j, h) })
	}
	w.land(-1, nil) // every leg is out: release the sender's count
}

// land folds shard j's completed leg h (nil: the sender's count); the
// last to land settles the write.
func (w *pendingWrite) land(j int, h *core.Handle) {
	if h != nil {
		err := h.Wait()
		w.mu.Lock()
		w.v.leg(j, 1, err == nil, err)
		w.end = max(w.end, h.CompletedAt())
		w.mu.Unlock()
	}
	if w.left.Add(-1) > 0 {
		return
	}
	if retry, err := w.v.answer(w.attempt); !retry {
		w.resolve(nil, err, w.end)
		return
	}
	w.attempt++
	go w.send()
}

// walk is one routed read: the key's read candidates (candidates of its
// set, primary first) and, past them, the source of a migration's
// dual-read window — offered only while the window is open over the key
// and no destination member holds any record of it. Both read paths
// step through it, so the order, what an answer means, when to retry and
// what is counted are decided here once.
type walk struct {
	s       *Store
	key     []byte
	mig     *migState // the dual window the read was admitted under, or nil
	set     []int     // route scratch; order filters it in place
	order   []int     // the candidates, in set order
	primary int
	k, j    int  // steps taken, and the shard the last one asked
	missed  bool // some shard answered ErrNotFound
	attempt int
}

// plan (re)reads the replica states into the walk's order.
func (w *walk) plan() {
	w.set = w.s.route(w.key, w.set)
	w.primary = w.set[0] // before candidates filters the set in place
	w.order, w.k, w.missed = w.s.candidates(w.set), 0, false
}

// next returns the shard to ask, or -1 and the read's result once the
// walk is out of shards: a miss if any shard missed. If no shard answered
// at all the read raced a crash/recover transition, and the walk starts
// over from fresh states, up to writeRetries times, before declaring the
// set unavailable. Taking the dual-window source counts
// migrate.dual_reads.
func (w *walk) next() (int, error) {
	s := w.s
	for {
		k := w.k
		w.k++
		if k < len(w.order) {
			w.j = w.order[k]
			return w.j, nil
		}
		if k == len(w.order) && w.mig != nil {
			if w.j = s.dualSource(w.mig, w.key); w.j >= 0 {
				s.m.migDualReads.Inc()
				return w.j, nil
			}
		}
		switch {
		case w.missed:
			return -1, core.ErrNotFound
		case w.attempt == writeRetries:
			return -1, errNoReplica
		}
		w.attempt++
		runtime.Gosched()
		w.plan()
	}
}

// answer folds the last asked shard's answer and reports whether it
// decides the read: a hit or an error is the result as the shard gave it.
// A miss, or a replica crashed under the read, goes on to the next shard.
// A hit on a candidate counts shard.replica_reads by its set position, and
// a fallback when that is not the primary or the replica is not up.
func (w *walk) answer(err error) bool {
	s, j := w.s, w.j
	switch {
	case err == nil:
		if w.k <= len(w.order) {
			pos := (j - w.primary + len(s.shards)) % len(s.shards)
			if pos > 0 || s.state[j].Load() != replicaUp {
				s.m.replicaFallbacks.Inc()
			}
			s.m.replicaReads[pos].Inc()
		}
		return true
	case errors.Is(err, core.ErrNotFound):
		w.missed = true
		return false
	}
	return !s.crashed(err)
}

// read is the sync read path: the walk's shards asked in turn on this
// thread's clock.
func (t *Thread) read(w *walk) ([]byte, error) {
	w.set = t.rset
	w.plan()
	t.rset = w.set // a set is always R long: later plans reuse this array
	for {
		j, err := w.next()
		if j < 0 {
			return nil, err
		}
		v, err := t.ths[j].Get(w.key)
		t.sync(j)
		if w.answer(err) {
			return v, err
		}
	}
}

// pendingRead is the async read path: one step of the walk in flight at
// a time, the next asked from the previous one's completion callback —
// which may be after a Flush started earlier; callers wanting completion
// wait the returned handle, not just Flush. It completes at the last
// answer's completion time.
type pendingRead struct {
	t       *Thread
	w       walk
	at      int64
	landed  func(*core.Handle) // land, bound once
	resolve func([]byte, error, int64)
}

// ask submits the walk's next step, or settles a walk with none left.
func (r *pendingRead) ask() {
	if j, err := r.w.next(); j < 0 {
		r.resolve(nil, err, r.at)
	} else {
		r.t.ths[j].GetAsync(r.w.key).OnDone(r.landed)
	}
}

// land folds a step's answer: a decided read resolves, else the walk
// goes on.
func (r *pendingRead) land(h *core.Handle) {
	v, err := h.Value()
	r.at = max(r.at, h.CompletedAt())
	if r.w.answer(err) {
		r.resolve(v, err, r.at)
		return
	}
	r.ask()
}
