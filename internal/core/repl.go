package core

import "sync"

// Replication groundwork: per-key logical timestamps (the
// creiht/valuestore idiom — every write carries a monotonically
// increasing stamp, deletes are tombstones carrying a stamp, and
// last-writer-wins reconciliation makes replica repair idempotent).
//
// The store itself neither assigns stamps nor talks to peers; the shard
// router does both. The store keeps a newest-stamp map alongside the
// Persistent Key Index — modeled, like the index, as NVM-resident state
// that survives Crash in-process — and exposes the TS write variants plus
// the enumeration hooks an anti-entropy pass needs (ReplicaEntries,
// ReplicaNewest, DiscardTombstones). The plain operations are the TS
// variants with stamp 0 (see putStep for the stamp rule): they never touch
// the map, which stays empty until a write carries a stamp, so the
// single-replica path is untouched.

// replState is the newest-stamp map: for each key, the newest stamp
// observed and whether it is a stored value's or a deletion's
// (tombstone's). A coarse RWMutex guards the map; 64 stripe locks
// serialize check-then-apply sequences per key so two concurrent
// timestamped writes cannot apply out of stamp order (map says ts2 but
// the stored value is ts1's).
//
// Entries are pointers so that a key already recorded — every stamped
// update after the first — is restamped in place: assigning into a
// map[string] allocates the key string even when the key is present,
// while a lookup or a delete does not.
//
// Lock order: PWB execMu → epoch section → stripe → mu. The stripe is
// only ever taken inside an epoch section (putStep/deleteStep run under
// the caller's Enter), and mu is a leaf.
type replState struct {
	stripes [64]sync.Mutex
	mu      sync.RWMutex
	stamps  map[string]*stamp
}

// stamp is one key's newest recorded stamp.
type stamp struct {
	ts   uint64
	tomb bool
}

func newReplState() *replState {
	return &replState{stamps: make(map[string]*stamp)}
}

// stripe returns the per-key write-sequencing lock.
func (r *replState) stripe(key []byte) *sync.Mutex {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return &r.stripes[h&63]
}

// newest returns the newest stamp recorded for key and whether it is a
// tombstone. Zero means no record.
func (r *replState) newest(key []byte) (ts uint64, tomb bool) {
	r.mu.RLock()
	if e := r.stamps[string(key)]; e != nil {
		ts, tomb = e.ts, e.tomb
	}
	r.mu.RUnlock()
	return ts, tomb
}

// set records ts as key's newest stamp, a tombstone's if tomb.
func (r *replState) set(key []byte, ts uint64, tomb bool) {
	r.mu.Lock()
	e := r.stamps[string(key)]
	if e == nil {
		e = new(stamp)
		r.stamps[string(key)] = e
	}
	e.ts, e.tomb = ts, tomb
	r.mu.Unlock()
}

// dropLive forgets the live stamp for a key whose value did not survive
// recovery (a lost forward/backward pair). The next anti-entropy pull
// sees the peer's newer stamp and re-replicates it; keeping the stale
// stamp would make the repaired store refuse its own missing value.
func (r *replState) dropLive(key []byte) {
	r.mu.Lock()
	if e := r.stamps[string(key)]; e != nil && !e.tomb {
		delete(r.stamps, string(key))
	}
	r.mu.Unlock()
}

// ReplicaEntries calls fn for every key with a recorded stamp — live
// values and tombstones — until fn returns false. It iterates a snapshot
// taken under the lock, so fn may freely call back into the store
// (anti-entropy passes read peers and write pulls from inside fn's
// loop). Keys are safe to retain.
func (s *Store) ReplicaEntries(fn func(key []byte, ts uint64, tombstone bool) bool) {
	r := s.repl
	type ent struct {
		key  string
		ts   uint64
		tomb bool
	}
	r.mu.RLock()
	snap := make([]ent, 0, len(r.stamps))
	for k, e := range r.stamps {
		snap = append(snap, ent{key: k, ts: e.ts, tomb: e.tomb})
	}
	r.mu.RUnlock()
	for _, e := range snap {
		if !fn([]byte(e.key), e.ts, e.tomb) {
			return
		}
	}
}

// ReplicaNewest returns the newest stamp recorded for key, whether it is
// a tombstone, and whether any record exists.
func (s *Store) ReplicaNewest(key []byte) (ts uint64, tombstone, ok bool) {
	ts, tombstone = s.repl.newest(key)
	return ts, tombstone, ts != 0
}

// DiscardTombstones forgets tombstones stamped strictly older than
// olderThan, returning how many were dropped. Safe only once every
// replica has seen the tombstone (the router's grace-period rule);
// discarding early lets a divergent replica resurrect the key.
func (s *Store) DiscardTombstones(olderThan uint64) int {
	r := s.repl
	r.mu.Lock()
	n := 0
	for k, e := range r.stamps {
		if e.tomb && e.ts < olderThan {
			delete(r.stamps, k)
			n++
		}
	}
	r.mu.Unlock()
	return n
}

// TombstoneCount returns the number of tombstones currently retained.
func (s *Store) TombstoneCount() int {
	r := s.repl
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, e := range r.stamps {
		if e.tomb {
			n++
		}
	}
	return n
}
