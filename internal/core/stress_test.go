package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"

	"repro/internal/sim"
)

// stressVal builds a value whose content encodes (thread, key, seq) so a
// lost update is attributable, padded to one of a few fixed sizes so that
// records of equal length recur at the same ring offsets after a wrap
// (the ABA shape of the seed reclamation/publish race).
func stressVal(ti, k, seq int) []byte {
	sizes := [3]int{96, 160, 224}
	v := make([]byte, sizes[seq%len(sizes)])
	copy(v, fmt.Sprintf("t%02d-k%04d-s%08d", ti, k, seq))
	for i := len(v) - 1; i >= 0 && v[i] == 0; i-- {
		v[i] = byte('a' + (ti+k+seq)%26)
	}
	return v
}

// TestPWBReclaimPublishStress is the permanent regression gate for the
// seed reclamation/publish race (ROADMAP PR 3): tiny per-thread rings
// force a wrap every handful of appends, a low watermark keeps the
// background reclaimer scanning almost continuously, and every thread's
// Put storm runs concurrently with foreign readers. On the unfixed seed
// this fails under -race within a few rounds, in one of three ways:
//
//   - a DATA RACE report between pwb.Append and the reclaimer's
//     pwb.Scan (the ring tail advanced mid-scan, so the foreground
//     recycled bytes the scanner was still reading);
//   - a lost update: Get returns a stale sequence for a key the owning
//     thread had already overwritten (the DevOff-aliasing ABA in the
//     well-coupled check / PublishIf);
//   - a torn scan read surfacing as a corrupt-record error or an
//     ill-coupled record in the final CheckInvariants pass.
//
// Each thread owns a disjoint key range and is its keys' only writer, so
// after its own Put(k, seq) returns, its own Get(k) must observe exactly
// seq — any older value is a durable-linearizability violation.
//
// It runs in two configurations: "nosvc" isolates the PWB release
// protocol, while "svc" (with a deliberately tiny cache, so admission
// and eviction churn constantly) additionally covers the SVC admission
// TOCTOU — on the unfixed seed a reader could publish a stale value into
// the cache after a concurrent Put's invalidation had already run.
func TestPWBReclaimPublishStress(t *testing.T) {
	t.Run("svc", func(t *testing.T) { runReclaimPublishStress(t, false) })
	t.Run("nosvc", func(t *testing.T) { runReclaimPublishStress(t, true) })
}

func runReclaimPublishStress(t *testing.T, disableSVC bool) {
	const (
		threads       = 4
		rounds        = 6
		keysPerThread = 12
		putsPerRound  = 300
	)
	s := small(t, func(o *Options) {
		o.NumThreads = threads
		o.PWBBytesPerThread = 4096 // minimum: wraps every ~16 appends
		o.ReclaimWatermark = 0.2
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
				rng := sim.NewRNG(uint64(1+round*threads+ti) * 2654435761)
				for j := 0; j < putsPerRound; j++ {
					k := rng.Intn(keysPerThread)
					sq := base + j
					if err := th.Put(keyOf(ti, k), stressVal(ti, k, sq)); err != nil {
						errs <- fmt.Errorf("thread %d put: %w", ti, err)
						return
					}
					lastSeq[ti][k] = sq
					switch rng.Uint64() % 4 {
					case 0:
						// Self-read: must observe exactly the last write.
						got, err := th.Get(keyOf(ti, k))
						if err != nil {
							errs <- fmt.Errorf("thread %d self-get: %w", ti, err)
							return
						}
						if want := stressVal(ti, k, sq); !bytes.Equal(got, want) {
							errs <- fmt.Errorf("thread %d key %d: lost update, got %.20q want %.20q",
								ti, k, got, want)
							return
						}
					case 1:
						// Foreign read: adds reader pressure on a ring being
						// concurrently appended and reclaimed.
						fi := rng.Intn(threads)
						if _, err := th.Get(keyOf(fi, rng.Intn(keysPerThread))); err != nil && !errors.Is(err, ErrNotFound) {
							errs <- fmt.Errorf("thread %d foreign-get: %w", ti, err)
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
		seq += putsPerRound

		// Round barrier: every key must hold its owner's last write.
		th := s.Thread(0)
		for ti := 0; ti < threads; ti++ {
			for k := 0; k < keysPerThread; k++ {
				sq := lastSeq[ti][k]
				if sq < 0 {
					continue
				}
				got, err := th.Get(keyOf(ti, k))
				if err != nil {
					t.Fatalf("round %d thread %d key %d: %v", round, ti, k, err)
				}
				if want := stressVal(ti, k, sq); !bytes.Equal(got, want) {
					t.Fatalf("round %d thread %d key %d: lost update, got %.20q want %.20q",
						round, ti, k, got, want)
				}
			}
		}
	}

	// Full quiescence (background goroutines joined), then the offline
	// coupling checker: any ill-coupled record the races above produced
	// but reads happened to miss shows up here.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if rep := s.CheckInvariants(); !rep.OK() {
		t.Fatalf("invariants violated after stress: %v", rep.Problems)
	}
}

// reuseVal is a self-describing value for key k: the key's id, a sequence
// number, filler of a length that varies with seq (so entries are reused
// across sizes), and a CRC-32 of everything before it.
func reuseVal(k, seq int) []byte {
	v := make([]byte, 200+(seq*37)%700)
	binary.LittleEndian.PutUint32(v, uint32(k))
	binary.LittleEndian.PutUint32(v[4:], uint32(seq))
	for i := 8; i < len(v)-4; i++ {
		v[i] = byte(k + seq + i)
	}
	binary.LittleEndian.PutUint32(v[len(v)-4:], crc32.ChecksumIEEE(v[:len(v)-4]))
	return v
}

// checkReuseVal reports what is wrong with v as key k's value, "" if
// nothing.
func checkReuseVal(k int, v []byte) string {
	switch {
	case len(v) < 12:
		return fmt.Sprintf("%d bytes", len(v))
	case crc32.ChecksumIEEE(v[:len(v)-4]) != binary.LittleEndian.Uint32(v[len(v)-4:]):
		return "torn bytes (CRC mismatch)"
	case binary.LittleEndian.Uint32(v) != uint32(k):
		return fmt.Sprintf("key %d's bytes", binary.LittleEndian.Uint32(v))
	}
	return ""
}

// TestSVCEntryReuseStress churns a small SVC while every hit is checked:
// writers overwrite keys (retracting their cached copies), reclaim passes
// and Value Storage reads admit values, the cache evicts continuously,
// and dropped entries are reused for other keys two epochs later (§5.4).
// A get — hit or miss — must return its own key's bytes, whole. Reusing
// an entry a reader may still hold, or letting a late event act on a
// reused entry, shows here as a foreign key's value, a CRC mismatch or a
// race report (make race).
func TestSVCEntryReuseStress(t *testing.T) {
	const (
		threads = 4
		keys    = 160
		ops     = 2500
	)
	s := small(t, func(o *Options) {
		o.NumThreads = threads
		o.SVCBytes = 16 << 10
	})
	for k := 0; k < keys; k++ {
		if err := s.Thread(0).Put(key(k), reuseVal(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, s)
	var wg sync.WaitGroup
	for ti := 0; ti < threads; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			th, rng := s.Thread(ti), sim.NewRNG(uint64(ti)+1)
			for i := 1; i <= ops; i++ {
				k := rng.Intn(keys)
				if rng.Intn(4) != 0 {
					k %= keys / 4 // a hot quarter, so the cache serves hits
				}
				if ti < threads/2 && i%5 == 0 {
					if err := th.Put(key(k), reuseVal(k, ti*ops+i)); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				v, err := th.Get(key(k))
				if err != nil {
					t.Errorf("thread %d: Get(%d): %v", ti, k, err)
					return
				}
				if bad := checkReuseVal(k, v); bad != "" {
					t.Errorf("thread %d, op %d: Get(%d) returned %s", ti, i, k, bad)
					return
				}
			}
		}(ti)
	}
	wg.Wait()
	s.cache.Sync()
	r := reg(t, s)
	if r.n("svc.hits") == 0 || r.n("svc.evictions") == 0 || r.n("svc.reuses") == 0 {
		t.Fatalf("the cache did not churn: %d hits, %d evictions, %d reuses",
			r.n("svc.hits"), r.n("svc.evictions"), r.n("svc.reuses"))
	}
	t.Logf("%d hits, %d evictions, %d reuses", r.n("svc.hits"), r.n("svc.evictions"), r.n("svc.reuses"))
	if rep := s.CheckInvariants(); !rep.OK() {
		t.Fatalf("invariants after the churn: %v", rep.Problems)
	}
}
