package shard

import (
	"errors"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
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

// writeRetries bounds the re-attempts a synchronous replicated
// operation makes when a replica crashes underneath it mid-operation:
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

// write is the one routed single-key write, Put or (del) Delete: it
// draws one stamp and applies it on every live member of the key's set.
// The write acknowledges when at least one replica accepted it; down
// replicas are skipped. If every attempted replica turns out to be
// closed — the op raced a crash — the fan-out retries with fresh states
// (the stamp stays fixed, so partial applications are idempotent). A
// delete reports ErrNotFound only when no replica held a live value. In
// range mode the write runs under the placement guard (a frozen
// migration window parks it until the flip).
func (t *Thread) write(key, value []byte, del bool) error {
	s := t.s
	if s.rangeMode {
		s.placeWrite(core.KV{Key: key})
		defer s.migMu.RUnlock()
	}
	ts := s.stamp()
	applied := s.m.replicaPut
	if del {
		applied = s.m.replicaDelete
	}
	for attempt := 0; ; attempt++ {
		t.rset = s.route(key, t.rset)
		acked, found, closed := 0, false, false
		var firstErr error
		for _, j := range t.rset {
			if s.skipDown(j) {
				continue
			}
			var f bool
			var err error
			if del {
				f, err = t.ths[j].DeleteTS(key, ts)
			} else {
				err = t.ths[j].PutTS(key, value, ts)
			}
			t.sync(j)
			switch {
			case err == nil:
				acked++
				found = found || f
				applied.Inc()
			case s.crashed(err):
				closed = true
				s.m.replicaErrors.Inc()
			default:
				s.m.replicaErrors.Inc()
				s.markNeedsRepair(j)
				if firstErr == nil {
					firstErr = err
				}
			}
		}
		switch {
		case acked > 0 && del && !found:
			return core.ErrNotFound
		case acked > 0:
			return nil
		case firstErr != nil:
			return firstErr
		case !closed || attempt >= writeRetries:
			return errNoReplica
		}
		runtime.Gosched()
	}
}

// read is the one routed single-key read: primary-first across the
// key's candidates, a miss on one falling through to the next. If no
// candidate answered at all the op raced a crash/recover transition and
// retries with fresh states before declaring the set unavailable.
func (t *Thread) read(key []byte) ([]byte, error) {
	s := t.s
	for attempt := 0; ; attempt++ {
		t.rset = s.route(key, t.rset)
		primary, missed := t.rset[0], false
		for _, j := range s.candidates(t.rset) {
			v, err := t.ths[j].Get(key)
			t.sync(j)
			switch {
			case err == nil:
				pos := (j - primary + len(s.shards)) % len(s.shards)
				if pos > 0 || s.state[j].Load() != replicaUp {
					s.m.replicaFallbacks.Inc()
				}
				s.m.replicaReads[pos].Inc()
				return v, nil
			case errors.Is(err, core.ErrNotFound):
				missed = true
			case s.crashed(err):
				// Crashed underneath us; the next state read sees it down.
			default:
				return nil, err
			}
		}
		if missed {
			return nil, core.ErrNotFound
		}
		if attempt >= writeRetries {
			return nil, errNoReplica
		}
		runtime.Gosched()
	}
}

// writeAsync is write on the async pipelines: one stamp, one submission
// per live member of the key's set, joined into one caller-visible
// Handle that completes when every replica completed — successfully if
// at least one accepted the write. Safe from any goroutine (it touches
// no router-thread scratch).
func (t *Thread) writeAsync(key, value []byte, del bool) *core.Handle {
	s := t.s
	if s.rangeMode {
		s.placeWrite(core.KV{Key: key})
		defer s.migMu.RUnlock()
	}
	ts := s.stamp()
	var sbuf [4]int
	var hbuf [4]*core.Handle
	set, hs := s.route(key, sbuf[:0]), hbuf[:0]
	for _, j := range set {
		var h *core.Handle // stays nil for a skipped (down) replica
		switch {
		case s.skipDown(j):
		case del:
			h = t.ths[j].DeleteTSAsync(key, ts)
		default:
			h = t.ths[j].PutTSAsync(key, value, ts)
		}
		hs = append(hs, h)
	}
	if len(set) == 1 {
		return hs[0] // a lone replica's completion is the result: nothing to join
	}
	if del {
		return s.joinWrite(hs, set, s.m.replicaDelete)
	}
	return s.joinWrite(hs, set, s.m.replicaPut)
}

// joinWrite composes per-replica write handles into one: nil if any
// replica succeeded, ErrNotFound if every replica reported it (deletes
// of a missing key), otherwise the first error. hs[k] is the submission
// on shard set[k] — nil where the replica was skipped — so a replica
// that failed with a non-closed error can be demoted to repairing.
// Completion time is the slowest replica's — the fan-out is a barrier
// in virtual time.
func (s *Store) joinWrite(hs []*core.Handle, set []int, applied *obs.Counter) *core.Handle {
	ph, resolve := core.NewProxyHandle()
	remaining := 0
	for _, h := range hs {
		if h != nil {
			remaining++
		}
	}
	if remaining == 0 {
		resolve(nil, errNoReplica, 0)
		return ph
	}
	var mu sync.Mutex
	anyOK, allNotFound := false, true
	var firstErr error
	var endMax int64
	for k, h := range hs {
		if h == nil {
			continue
		}
		j := set[k]
		h.OnDone(func(h *core.Handle) {
			err := h.Wait()
			mu.Lock()
			switch {
			case err == nil:
				anyOK = true
				allNotFound = false
				applied.Inc()
			case errors.Is(err, core.ErrNotFound):
				// counts toward allNotFound
			default:
				allNotFound = false
				if firstErr == nil {
					firstErr = err
				}
				s.m.replicaErrors.Inc()
				if !errors.Is(err, core.ErrClosed) {
					s.markNeedsRepair(j)
				}
			}
			if at := h.CompletedAt(); at > endMax {
				endMax = at
			}
			remaining--
			last := remaining == 0
			ok, nf, ferr, end := anyOK, allNotFound, firstErr, endMax
			mu.Unlock()
			if !last {
				return
			}
			switch {
			case ok:
				resolve(nil, nil, end)
			case nf:
				resolve(nil, core.ErrNotFound, end)
			case ferr != nil:
				resolve(nil, ferr, end)
			default:
				resolve(nil, errNoReplica, end)
			}
		})
	}
	return ph
}

// readAsync is read on the async pipelines: try the first candidate,
// and on miss or crash fall through to the next from the completion
// callback — the same failover order as the synchronous path, without
// blocking any goroutine. Note the follow-up submission happens when
// the previous attempt completes, which may be after a Flush started
// earlier; callers wanting completion wait the returned handle, not
// just Flush. Safe from any goroutine.
func (t *Thread) readAsync(key []byte) *core.Handle {
	s := t.s
	var buf [4]int
	set := s.route(key, buf[:0])
	if len(set) == 1 {
		return t.ths[set[0]].GetAsync(key) // a lone replica's completion is the result
	}
	order := append([]int(nil), s.candidates(set)...)
	ph, resolve := core.NewProxyHandle()
	if len(order) == 0 {
		resolve(nil, errNoReplica, 0)
		return ph
	}
	var try func(k int, sawMiss bool, lastAt int64)
	try = func(k int, sawMiss bool, lastAt int64) {
		if k >= len(order) {
			if sawMiss {
				resolve(nil, core.ErrNotFound, lastAt)
			} else {
				resolve(nil, errNoReplica, lastAt)
			}
			return
		}
		j := order[k]
		t.ths[j].GetAsync(key).OnDone(func(h *core.Handle) {
			v, err := h.Value()
			at := h.CompletedAt()
			if at < lastAt {
				at = lastAt
			}
			switch {
			case err == nil:
				if k > 0 {
					s.m.replicaFallbacks.Inc()
				}
				resolve(v, nil, at)
			case errors.Is(err, core.ErrNotFound):
				try(k+1, true, at)
			case s.crashed(err):
				try(k+1, sawMiss, at)
			default:
				resolve(nil, err, at)
			}
		})
	}
	try(0, false, 0)
	return ph
}
