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

// replState is the newest-stamp map: for each key, at most one of live
// (a stored value) or tomb (a deletion) holds the newest stamp observed.
// A coarse RWMutex guards the maps; 64 stripe locks serialize
// check-then-apply sequences per key so two concurrent timestamped
// writes cannot apply out of stamp order (map says ts2 but the stored
// value is ts1's).
//
// Lock order: PWB execMu → epoch section → stripe → mu. The stripe is
// only ever taken inside an epoch section (putStep/deleteStep run under
// the caller's Enter), and mu is a leaf.
type replState struct {
	stripes [64]sync.Mutex
	mu      sync.RWMutex
	live    map[string]uint64
	tomb    map[string]uint64
}

func newReplState() *replState {
	return &replState{
		live: make(map[string]uint64),
		tomb: make(map[string]uint64),
	}
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
func (r *replState) newest(key string) (ts uint64, tomb bool) {
	r.mu.RLock()
	lv := r.live[key]
	tv := r.tomb[key]
	r.mu.RUnlock()
	if tv > lv {
		return tv, true
	}
	return lv, false
}

func (r *replState) setLive(key string, ts uint64) {
	r.mu.Lock()
	r.live[key] = ts
	delete(r.tomb, key)
	r.mu.Unlock()
}

func (r *replState) setTomb(key string, ts uint64) {
	r.mu.Lock()
	r.tomb[key] = ts
	delete(r.live, key)
	r.mu.Unlock()
}

// dropLive forgets the live stamp for a key whose value did not survive
// recovery (a lost forward/backward pair). The next anti-entropy pull
// sees the peer's newer stamp and re-replicates it; keeping the stale
// stamp would make the repaired store refuse its own missing value.
func (r *replState) dropLive(key string) {
	r.mu.Lock()
	delete(r.live, key)
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
	snap := make([]ent, 0, len(r.live)+len(r.tomb))
	for k, ts := range r.live {
		snap = append(snap, ent{key: k, ts: ts})
	}
	for k, ts := range r.tomb {
		snap = append(snap, ent{key: k, ts: ts, tomb: true})
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
	ts, tombstone = s.repl.newest(string(key))
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
	for k, ts := range r.tomb {
		if ts < olderThan {
			delete(r.tomb, k)
			n++
		}
	}
	r.mu.Unlock()
	return n
}

// TombstoneCount returns the number of tombstones currently retained.
func (s *Store) TombstoneCount() int {
	s.repl.mu.RLock()
	defer s.repl.mu.RUnlock()
	return len(s.repl.tomb)
}
