package bench

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/sim"
)

// Every engine must agree with an in-memory reference model under a
// random operation sequence — the same property test, one per engine, so
// a baseline bug can't silently skew a comparison.
func TestEnginesMatchReferenceModel(t *testing.T) {
	for _, kind := range AllEngines {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			st, err := NewEngine(kind, RunConfig{Threads: 1, Records: 500, ValueSize: 256})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			kv := st.Thread(0)
			rng := sim.NewRNG(0xbeef)
			ref := map[string]string{}
			key := func(i int) []byte { return []byte(fmt.Sprintf("user%012d", i)) }
			for i := 0; i < 3000; i++ {
				k := rng.Intn(400)
				switch rng.Intn(10) {
				case 0:
					err := kv.Delete(key(k))
					_, exists := ref[string(key(k))]
					if exists != (err == nil) && !errors.Is(err, engine.ErrNotFound) {
						t.Fatalf("op %d: delete %d err=%v exists=%v", i, k, err, exists)
					}
					delete(ref, string(key(k)))
				case 1, 2, 3:
					got, err := kv.Get(key(k))
					want, exists := ref[string(key(k))]
					if exists != (err == nil) {
						t.Fatalf("op %d: get %d err=%v, model exists=%v", i, k, err, exists)
					}
					if exists && string(got) != want {
						t.Fatalf("op %d: get %d = %q, model %q", i, k, got, want)
					}
				case 4:
					// Range scan agrees with the sorted model.
					start := key(k)
					var want []string
					for rk := range ref {
						if rk >= string(start) {
							want = append(want, rk)
						}
					}
					sort.Strings(want)
					if len(want) > 10 {
						want = want[:10]
					}
					var got []string
					if err := kv.Scan(start, 10, func(k, v []byte) bool {
						got = append(got, string(k))
						return true
					}); err != nil {
						t.Fatalf("op %d: scan: %v", i, err)
					}
					if len(got) != len(want) {
						t.Fatalf("op %d: scan got %d keys, model %d\n got: %v\nwant: %v", i, len(got), len(want), got, want)
					}
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("op %d: scan[%d] = %q, model %q", i, j, got[j], want[j])
						}
					}
				default:
					v := fmt.Sprintf("v-%d-%04d", i, rng.Intn(10000))
					// Values must be fixed-size for KVell's slab slots;
					// pad deterministically.
					padded := make([]byte, 64)
					copy(padded, v)
					if err := kv.Put(key(k), padded); err != nil {
						t.Fatalf("op %d: put: %v", i, err)
					}
					ref[string(key(k))] = string(padded)
				}
			}
			// Full final agreement.
			n := 0
			if err := kv.Scan(nil, 0, func(k, v []byte) bool {
				want, exists := ref[string(k)]
				if !exists {
					t.Fatalf("final scan surfaced unknown key %q", k)
				}
				if !bytes.Equal(v, []byte(want)) {
					t.Fatalf("final scan %q = %q, model %q", k, v, want)
				}
				n++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if n != len(ref) {
				t.Fatalf("final scan visited %d keys, model has %d", n, len(ref))
			}
		})
	}
}
