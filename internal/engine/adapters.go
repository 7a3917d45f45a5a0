package engine

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/sim"
)

// PrismStore adapts shard.Store (the routed front end over one or more
// core engines; one shard is a pass-through) to the engine interface.
type PrismStore struct {
	S *shard.Store
}

// NewPrism opens a Prism store as an engine.Store; opt.Shards selects
// the shard count (default one).
func NewPrism(opt core.Options) (*PrismStore, error) {
	s, err := shard.Open(opt)
	if err != nil {
		return nil, err
	}
	return &PrismStore{S: s}, nil
}

type prismThread struct {
	t *shard.Thread
}

// Thread returns handle i.
func (p *PrismStore) Thread(i int) KV { return prismThread{p.S.Thread(i)} }

// NumThreads returns the handle count.
func (p *PrismStore) NumThreads() int { return p.S.NumThreads() }

// Close stops the store.
func (p *PrismStore) Close() error { return p.S.Close() }

// Metrics returns the underlying store's observability snapshot,
// implementing bench.MetricsSource.
func (p *PrismStore) Metrics() obs.Snapshot { return p.S.Metrics() }

// WriteAmp reports (SSD bytes written, user bytes written).
func (p *PrismStore) WriteAmp() (device, user int64) { return p.S.WriteAmp() }

func (t prismThread) Put(key, value []byte) error { return t.t.Put(key, value) }

func (t prismThread) Get(key []byte) ([]byte, error) { return t.t.Get(key) }

func (t prismThread) Delete(key []byte) error { return t.t.Delete(key) }

func (t prismThread) Scan(start []byte, count int, fn func(key, value []byte) bool) error {
	return t.t.Scan(start, count, func(kv core.KV) bool { return fn(kv.Key, kv.Value) })
}

func (t prismThread) Clock() *sim.Clock { return t.t.Clk }

// PutBatch implements BatchKV over the routed single-epoch-per-shard
// batch write.
func (t prismThread) PutBatch(pairs []Pair) error {
	kvs := make([]core.KV, len(pairs))
	for i, p := range pairs {
		kvs[i] = core.KV{Key: p.Key, Value: p.Value}
	}
	return t.t.PutBatch(kvs)
}

// MultiGet implements BatchKV over the routed merged-extent batch read.
func (t prismThread) MultiGet(keys [][]byte) ([][]byte, error) {
	return t.t.MultiGet(keys)
}

// PutAsync implements AsyncKV over the routed per-shard admission loops.
func (t prismThread) PutAsync(key, value []byte) Completion {
	return t.t.PutAsync(key, value)
}

// GetAsync implements AsyncKV.
func (t prismThread) GetAsync(key []byte) Completion {
	return t.t.GetAsync(key)
}

// DeleteAsync implements AsyncKV.
func (t prismThread) DeleteAsync(key []byte) Completion {
	return t.t.DeleteAsync(key)
}

// Flush implements AsyncKV: waits out every in-flight submission and
// folds the per-shard async timelines into the handle's makespan clock.
func (t prismThread) Flush() { t.t.Flush() }
