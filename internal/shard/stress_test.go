package shard

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func stressVal(ti, k, seq int) []byte {
	return []byte(fmt.Sprintf("t%02d-k%04d-s%08d-%048d", ti, k, seq, seq))
}

// TestShardBatchFanoutStress is the -race gate for the cross-shard
// fan-out path: several router threads drive batches whose keys scatter
// over every shard, so each PutBatch runs a per-shard sub-batch on every
// shard — one after another on its caller's goroutine — against shards
// whose tiny 4 KiB PWB rings are being reclaimed concurrently. It guards the router-level failure modes the per-shard stress (core's
// TestPutBatchReclaimStress) cannot see:
//
//   - router threads sharing scratch state or core threads (a DATA RACE
//     in the sub-batch partitioning or on a core thread's clock);
//   - results scattered to the wrong input position after the per-shard
//     sub-reads return (the exact-value self-MultiGets below);
//   - a sub-batch silently dropped when another shard's sub-batch of
//     the same fan-out fails or stalls.
//
// Each router thread owns a disjoint key range written only in batches;
// after PutBatch returns, a MultiGet over the owned range must see
// exactly the last committed sequence for every key.
func TestShardBatchFanoutStress(t *testing.T) {
	const (
		shards          = 4
		threads         = 4
		rounds          = 4
		keysPerThread   = 16
		batchesPerRound = 60
	)
	s := small(t, shards, func(o *core.Options) {
		o.NumThreads = threads
		o.PWBBytesPerThread = 4096 // minimum: a batch spans a large ring fraction
		o.ReclaimWatermark = 0.2
		o.SVCBytes = 8 << 10 // tiny: constant admission/eviction churn
	})

	lastSeq := make([][]int, threads)
	for ti := range lastSeq {
		lastSeq[ti] = make([]int, keysPerThread)
		for k := range lastSeq[ti] {
			lastSeq[ti][k] = -1
		}
	}
	keyOf := func(ti, k int) []byte { return key(ti*keysPerThread + k) }

	seq := 0
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, threads)
		for ti := 0; ti < threads; ti++ {
			wg.Add(1)
			go func(ti, base int) {
				defer wg.Done()
				th := s.Thread(ti)
				rng := sim.NewRNG(uint64(1+round*threads+ti) * 0x9e3779b9)
				selfKeys := make([][]byte, keysPerThread)
				for k := range selfKeys {
					selfKeys[k] = keyOf(ti, k)
				}
				for j := 0; j < batchesPerRound; j++ {
					// 2-8 keys per batch, duplicates allowed (later wins);
					// a batch this wide almost always crosses shards.
					n := 2 + rng.Intn(7)
					kvs := make([]core.KV, n)
					picked := make([]int, n)
					for b := 0; b < n; b++ {
						k := rng.Intn(keysPerThread)
						picked[b] = k
						kvs[b] = core.KV{Key: keyOf(ti, k), Value: stressVal(ti, k, base+j*8+b)}
					}
					if err := th.PutBatch(kvs); err != nil {
						errs <- fmt.Errorf("thread %d batch: %w", ti, err)
						return
					}
					for b, k := range picked {
						lastSeq[ti][k] = base + j*8 + b
					}
					switch rng.Uint64() % 4 {
					case 0:
						// Self MultiGet over the whole owned range: every
						// key must hold exactly its last committed write,
						// in input order, regardless of fan-out.
						vals, err := th.MultiGet(selfKeys)
						if err != nil {
							errs <- fmt.Errorf("thread %d self-multiget: %w", ti, err)
							return
						}
						for k, got := range vals {
							sq := lastSeq[ti][k]
							if sq < 0 {
								continue
							}
							if want := stressVal(ti, k, sq); !bytes.Equal(got, want) {
								errs <- fmt.Errorf("thread %d key %d: lost or misplaced batched update, got %.20q want %.20q",
									ti, k, got, want)
								return
							}
						}
					case 1:
						// Foreign MultiGet: cross-shard reader pressure on
						// rings being appended and reclaimed concurrently.
						fi := rng.Intn(threads)
						fkeys := make([][]byte, 6)
						for b := range fkeys {
							fkeys[b] = keyOf(fi, rng.Intn(keysPerThread))
						}
						if _, err := th.MultiGet(fkeys); err != nil {
							errs <- fmt.Errorf("thread %d foreign-multiget: %w", ti, err)
							return
						}
					}
				}
			}(ti, seq)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		seq += batchesPerRound * 8

		// Round barrier: every key must hold its owner's last batched
		// write, observed from a different router thread.
		th := s.Thread(0)
		for ti := 0; ti < threads; ti++ {
			keys := make([][]byte, keysPerThread)
			for k := range keys {
				keys[k] = keyOf(ti, k)
			}
			vals, err := th.MultiGet(keys)
			if err != nil {
				t.Fatalf("round %d thread %d: %v", round, ti, err)
			}
			for k, got := range vals {
				sq := lastSeq[ti][k]
				if sq < 0 {
					continue
				}
				if want := stressVal(ti, k, sq); !bytes.Equal(got, want) {
					t.Fatalf("round %d thread %d key %d: lost batched update, got %.20q want %.20q",
						round, ti, k, got, want)
				}
			}
		}
	}

	// Full quiescence, then every shard's offline coupling checker.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < s.NumShards(); j++ {
		if rep := s.Shard(j).CheckInvariants(); !rep.OK() {
			t.Fatalf("shard %d invariants violated after fan-out stress: %v", j, rep.Problems)
		}
	}
}
