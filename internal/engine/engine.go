// Package engine defines the key-value engine interface shared by Prism
// and the baseline stores (KVell, MatrixKV, RocksDB-NVM, SLM-DB), so the
// YCSB driver and the benchmark harness can run any of them. Each engine
// hands out per-thread handles carrying a virtual clock; the harness
// computes throughput from virtual time and latency from per-op deltas.
package engine

import (
	"errors"

	"repro/internal/core"
	"repro/internal/sim"
)

// ErrNotFound is returned by Get/Delete for missing keys. Engines must
// return an error that errors.Is-matches this. It is Prism's own
// sentinel, so the Prism adapter passes the store's errors through.
var ErrNotFound = core.ErrNotFound

// Pair is a key-value pair exchanged by engines.
type Pair struct {
	Key   []byte
	Value []byte
}

// KV is one application thread's handle onto a store.
type KV interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, error)
	Delete(key []byte) error
	// Scan visits up to count pairs with key >= start in order.
	Scan(start []byte, count int, fn func(key, value []byte) bool) error
	// Clock returns the thread's virtual clock.
	Clock() *sim.Clock
}

// BatchKV is the optional batch extension of KV: engines with native
// batch operations (Prism's single-epoch PutBatch/MultiGet) implement
// it; callers go through the package-level PutBatch/MultiGet helpers,
// which fall back to per-key loops for the baselines — exactly the
// unamortized cost the batch API is measured against.
type BatchKV interface {
	// PutBatch applies pairs in order. Not atomic: on error a prefix of
	// the batch may have been applied.
	PutBatch(pairs []Pair) error
	// MultiGet returns one value per key; a nil entry marks a missing
	// key (no ErrNotFound), a present-but-empty value is non-nil.
	MultiGet(keys [][]byte) ([][]byte, error)
}

// Completion is the future returned by an AsyncKV submission. All
// methods are safe to call from any goroutine, repeatedly; a Completion
// resolves exactly once.
type Completion interface {
	// Wait blocks until the operation completes and returns its error
	// (ErrNotFound for a missing key on Get/Delete).
	Wait() error
	// Value blocks until completion and returns the result; only async
	// gets produce a value.
	Value() ([]byte, error)
}

// AsyncKV is the optional asynchronous extension of KV: engines with a
// native submission pipeline (Prism's per-thread admission loops)
// implement it. Unlike KV's single-owner contract, the async methods
// may be called from any goroutine; per-handle submissions apply in
// submission order. Flush blocks until everything submitted has
// completed and folds the async makespan into the handle's Clock.
type AsyncKV interface {
	PutAsync(key, value []byte) Completion
	GetAsync(key []byte) Completion
	DeleteAsync(key []byte) Completion
	Flush()
}

// PutBatch writes pairs through kv: natively when kv implements BatchKV,
// otherwise as a per-pair Put loop.
func PutBatch(kv KV, pairs []Pair) error {
	if b, ok := kv.(BatchKV); ok {
		return b.PutBatch(pairs)
	}
	for _, p := range pairs {
		if err := kv.Put(p.Key, p.Value); err != nil {
			return err
		}
	}
	return nil
}

// MultiGet reads keys through kv: natively when kv implements BatchKV,
// otherwise as a per-key Get loop. Missing keys yield nil entries;
// present-but-empty values are non-nil.
func MultiGet(kv KV, keys [][]byte) ([][]byte, error) {
	if b, ok := kv.(BatchKV); ok {
		return b.MultiGet(keys)
	}
	vals := make([][]byte, len(keys))
	for i, k := range keys {
		v, err := kv.Get(k)
		switch {
		case err == nil:
			if v == nil {
				v = []byte{}
			}
			vals[i] = v
		case errors.Is(err, ErrNotFound):
			// stays nil
		default:
			return vals, err
		}
	}
	return vals, nil
}

// Store is a key-value store instance with per-thread handles.
type Store interface {
	// Thread returns handle i; handles must not be shared across
	// goroutines, distinct handles may run concurrently.
	Thread(i int) KV
	// NumThreads returns how many handles exist.
	NumThreads() int
	// Close stops background work.
	Close() error
	// WriteAmp returns (deviceBytesWritten, userBytesWritten) for
	// SSD-level WAF accounting (Figure 12).
	WriteAmp() (device, user int64)
}
