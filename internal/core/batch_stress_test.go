package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/sim"
)

// TestPutBatchReclaimStress is TestPWBReclaimPublishStress's batch
// sibling and the -race gate for the batched publish window: PutBatch
// holds the PWB's unpublished floor across several appends, so on tiny
// 4 KiB rings every batch pins a window the background reclaimer must
// not scan past. The failure modes it guards are the batch variants of
// the PR 3 seed race:
//
//   - a reclaimer scanning into the unpublished tail of a half-appended
//     batch (torn read or DATA RACE between Append and Scan);
//   - a floor that a mid-batch append re-raised (the conditional mark in
//     pwb.Append), letting the reclaimer release the batch's first
//     records before their forward pointers landed — a lost update the
//     exact-value self-reads below catch;
//   - a batch retry (ring full mid-batch) republishing a prefix twice.
//
// Each thread owns a disjoint key range and writes it only in batches;
// after PutBatch returns, a MultiGet over its own range must see exactly
// the last committed sequence for every key. Foreign MultiGets add
// reader pressure on rings being appended and reclaimed concurrently.
func TestPutBatchReclaimStress(t *testing.T) {
	t.Run("svc", func(t *testing.T) { runPutBatchReclaimStress(t, false) })
	t.Run("nosvc", func(t *testing.T) { runPutBatchReclaimStress(t, true) })
}

func runPutBatchReclaimStress(t *testing.T, disableSVC bool) {
	const (
		threads         = 4
		rounds          = 5
		keysPerThread   = 12
		batchesPerRound = 80
	)
	s := small(t, func(o *Options) {
		o.NumThreads = threads
		o.PWBBytesPerThread = 4096 // minimum: a batch spans a large ring fraction
		o.reclaimWatermark = 0.2
		o.DisableSVC = disableSVC
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
					// 2-6 keys per batch, duplicates allowed (later wins).
					n := 2 + rng.Intn(5)
					kvs := make([]KV, n)
					picked := make([]int, n)
					for b := 0; b < n; b++ {
						k := rng.Intn(keysPerThread)
						picked[b] = k
						kvs[b] = KV{Key: keyOf(ti, k), Value: stressVal(ti, k, base+j*8+b)}
					}
					if err := th.PutBatchTS(kvs, nil); err != nil {
						errs <- fmt.Errorf("thread %d batch: %w", ti, err)
						return
					}
					for b, k := range picked {
						lastSeq[ti][k] = base + j*8 + b
					}
					switch rng.Uint64() % 4 {
					case 0:
						// Self MultiGet over the whole owned range: every
						// key must hold exactly its last committed write.
						vals, err := th.MultiGetInto(selfKeys, nil)
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
								errs <- fmt.Errorf("thread %d key %d: lost batched update, got %.20q want %.20q",
									ti, k, got, want)
								return
							}
						}
					case 1:
						// Foreign MultiGet: reader pressure on a ring being
						// concurrently batch-appended and reclaimed.
						fi := rng.Intn(threads)
						fkeys := make([][]byte, 4)
						for b := range fkeys {
							fkeys[b] = keyOf(fi, rng.Intn(keysPerThread))
						}
						if _, err := th.MultiGetInto(fkeys, nil); err != nil {
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
		// write, observed from a different thread via MultiGet.
		th := s.Thread(0)
		for ti := 0; ti < threads; ti++ {
			keys := make([][]byte, keysPerThread)
			for k := range keys {
				keys[k] = keyOf(ti, k)
			}
			vals, err := th.MultiGetInto(keys, nil)
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

	// Full quiescence, then the offline coupling checker: an ill-coupled
	// record left by a batch-window race that reads happened to miss
	// shows up here.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if rep := s.CheckInvariants(); !rep.OK() {
		t.Fatalf("invariants violated after batch stress: %v", rep.Problems)
	}
}
