package bench

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/model"
)

// The model harness over every engine, through the engine interface and
// its batch and async extensions, so a baseline bug can't silently skew a
// comparison.
func TestEnginesMatchReferenceModel(t *testing.T) {
	for _, kind := range AllEngines {
		t.Run(kind, func(t *testing.T) {
			model.Run(t, model.Config{Keys: 400, Steps: 1500}, func(t *testing.T) model.Level[engine.Pair, engine.Completion] {
				st, err := NewEngine(kind, RunConfig{Threads: 1, Records: 500, ValueSize: 256})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { st.Close() })
				kv := st.Thread(0)
				ops := model.Ops[engine.Pair, engine.Completion]{Put: kv.Put, Get: kv.Get, Del: kv.Delete,
					Scan: func(start []byte, n int, fn func(engine.Pair) bool) error {
						return kv.Scan(start, n, func(k, v []byte) bool { return fn(engine.Pair{Key: k, Value: v}) })
					},
					PutBatch: func(p []engine.Pair) error { return engine.PutBatch(kv, p) },
					MultiGet: func(keys [][]byte) ([][]byte, error) { return engine.MultiGet(kv, keys) },
				}
				if a, ok := kv.(engine.AsyncKV); ok {
					ops.PutAsync, ops.GetAsync, ops.DelAsync = a.PutAsync, a.GetAsync, a.DeleteAsync
				}
				return model.Level[engine.Pair, engine.Completion]{Name: kind + " engine", NotFound: engine.ErrNotFound,
					Client: func(int) model.Ops[engine.Pair, engine.Completion] { return ops }}
			})
		})
	}
}
