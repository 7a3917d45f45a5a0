package shard

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
)

// flashStore opens a shards x replicas store holding n keys whose values
// are all in Value Storage and nowhere else: a crash plus recovery drains
// the PWBs and empties the SVC. Each shard has one SSD, filled in write
// order, and the keys are written in 64 strided runs (0, 64, 128, ... then
// 1, 65, ...), so two rows of one scan of up to 50 rows from a multiple of
// 64 are a run's worth of records apart on whichever shard holds them, each
// in an extent of its own (recovery drains what the crash found in a PWB —
// the last few runs — in key order, which is why the scan stays clear of
// those). core.read_path then moves by one per row a scan resolves,
// whichever medium serves it.
func flashStore(t *testing.T, shards, replicas, n int) *Store {
	t.Helper()
	s := repl(t, shards, replicas, func(o *core.Options) {
		o.NumSSDs = 1
		o.SSDBytes = 16 << 20
		o.SVCBytes = 1 << 20
	})
	th := s.Thread(0)
	for r := 0; r < 64; r++ {
		for i := r; i < n; i += 64 {
			if err := th.Put(key(i), rowValue(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Crash()
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	return s
}

func rowValue(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 128) }

// scanRows scans count rows from key(from) and checks them against the
// keys live says exist, in order, none twice.
func scanRows(t *testing.T, th *Thread, from, count int, live func(i int) bool) {
	t.Helper()
	i, rows := from, 0
	err := th.Scan(key(from), count, func(kv core.KV) bool {
		for !live(i) {
			i++
		}
		if !bytes.Equal(kv.Key, key(i)) || !bytes.Equal(kv.Value, rowValue(i)) {
			t.Fatalf("row %d of the scan is %s, want %s with its value", rows, kv.Key, key(i))
		}
		i, rows = i+1, rows+1
		return true
	})
	if err != nil || rows != count {
		t.Fatalf("scan of %d rows from %d returned %d: %v", count, from, rows, err)
	}
}

// TestMergedScanReadsEachRowOnce: a merged scan of 50 rows resolves 50
// rows, summed over the shards — not 50 on every shard asked — and asks a
// covering set of the shards for a walk: ceil(shards/replicas) of them.
// Cold, the rows come from flash, first touch; warm, from the SVCs.
func TestMergedScanReadsEachRowOnce(t *testing.T) {
	for _, tc := range []struct{ shards, replicas, asked int }{{3, 2, 2}, {4, 1, 4}} {
		t.Run(fmt.Sprintf("%dx%d", tc.shards, tc.replicas), func(t *testing.T) {
			s := flashStore(t, tc.shards, tc.replicas, 12800)
			th := s.Thread(0)
			// A batch fan-out before the scan: the scan shares its scratch.
			if _, err := th.MultiGet([][]byte{key(1), key(2), key(3), key(4), key(5), key(6)}); err != nil {
				t.Fatal(err)
			}
			all := func(int) bool { return true }
			scan := func() core.Stats {
				before := s.Stats()
				scanRows(t, th, 1024, 50, all)
				after := s.Stats()
				return core.Stats{
					Scans:        after.Scans - before.Scans,
					SVCHits:      after.SVCHits - before.SVCHits,
					PWBHits:      after.PWBHits - before.PWBHits,
					VSReads:      after.VSReads - before.VSReads,
					ScanDeferred: after.ScanDeferred - before.ScanDeferred,
				}
			}
			cold := scan()
			if cold.VSReads != 50 || cold.ScanDeferred != 50 || cold.SVCHits+cold.PWBHits != 0 {
				t.Errorf("cold: %d rows from flash (%d first touches), %d from the SVC, %d from the PWB; want 50 (50), 0, 0",
					cold.VSReads, cold.ScanDeferred, cold.SVCHits, cold.PWBHits)
			}
			if cold.Scans != int64(tc.asked) {
				t.Errorf("cold: %d shards asked, want %d", cold.Scans, tc.asked)
			}
			// Each shard admits a row on its second touch there, and the
			// covering set rotates: a few scans and every row is cached
			// wherever the scan reads it.
			var warm core.Stats
			for i := 0; i < 4*tc.shards; i++ {
				if warm = scan(); warm.VSReads == 0 {
					break
				}
			}
			if warm.SVCHits != 50 || warm.VSReads+warm.PWBHits != 0 {
				t.Errorf("warm: %d rows from the SVC, %d from flash, %d from the PWB; want 50, 0, 0", warm.SVCHits, warm.VSReads, warm.PWBHits)
			}
			if warm.Scans != int64(tc.asked) {
				t.Errorf("warm: %d shards asked, want %d", warm.Scans, tc.asked)
			}
		})
	}
}

// TestScanCover: every replica set meets the covering set, which has
// ceil(n/r) distinct members — and on a store, rotating its offset asks
// every shard for its share of the scans.
func TestScanCover(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for r := 1; r <= n; r++ {
			for o := 0; o < n; o++ {
				c := cover(n, r, o, nil)
				in := make([]bool, n)
				for _, j := range c {
					if in[j] {
						t.Fatalf("cover(%d, %d, %d) = %v names shard %d twice", n, r, o, c, j)
					}
					in[j] = true
				}
				if want := (n + r - 1) / r; len(c) != want {
					t.Fatalf("cover(%d, %d, %d) = %v, want %d members", n, r, o, c, want)
				}
				for p := 0; p < n; p++ {
					met := false
					for k := 0; k < r; k++ {
						met = met || in[(p+k)%n]
					}
					if !met {
						t.Fatalf("cover(%d, %d, %d) = %v misses the replica set of primary %d", n, r, o, c, p)
					}
				}
			}
		}
	}

	for _, tc := range []struct{ shards, replicas int }{{3, 2}, {5, 2}, {4, 1}} {
		s := repl(t, tc.shards, tc.replicas, nil)
		th := s.Thread(0)
		for i := 0; i < 100; i++ {
			if err := th.Put(key(i), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		const scans = 300
		for i := 0; i < scans; i++ {
			if err := th.Scan(key(i%90), 10, func(core.KV) bool { return true }); err != nil {
				t.Fatal(err)
			}
		}
		share := float64(scans) * float64((tc.shards+tc.replicas-1)/tc.replicas) / float64(tc.shards)
		for j := 0; j < tc.shards; j++ {
			if got := float64(s.Shard(j).Stats().Scans); got < 0.9*share || got > 1.1*share {
				t.Errorf("%dx%d: shard %d was asked by %.0f of %d scans, want %.0f +-10%%", tc.shards, tc.replicas, j, got, scans, share)
			}
		}
	}
}

// TestMergedScanRefillsDeletedWinners: winners deleted between the walks
// and the row reads do not shorten the scan. A few are replaced from the
// candidates the walks already returned; when most are gone the shards
// walk again from the last key merged. Either way count surviving rows
// come back, in order, none twice.
func TestMergedScanRefillsDeletedWinners(t *testing.T) {
	for _, tc := range []struct {
		shards, replicas int
		every            int // delete every n-th winner...
		keep             int // ...but for one in keep of those
	}{{3, 2, 7, 0}, {3, 2, 1, 5}, {4, 1, 7, 0}, {4, 1, 1, 5}} {
		t.Run(fmt.Sprintf("%dx%d/every%d", tc.shards, tc.replicas, tc.every), func(t *testing.T) {
			s := repl(t, tc.shards, tc.replicas, nil)
			th, other := s.Thread(0), s.Thread(1)
			const n = 400
			for i := 0; i < n; i++ {
				if err := th.Put(key(i), rowValue(i)); err != nil {
					t.Fatal(err)
				}
			}
			gone := make(map[string]bool)
			rounds := 0
			scanHook = func(t2 *Thread) {
				if rounds++; rounds > 1 {
					return
				}
				w := 0
				for _, j := range t2.touched {
					for _, k := range t2.subKeys[j] {
						if w++; w%tc.every == 0 && (tc.keep == 0 || w%tc.keep != 0) {
							gone[string(k)] = true
						}
					}
				}
				for k := range gone {
					if err := other.Delete([]byte(k)); err != nil {
						t.Errorf("delete %s: %v", k, err)
					}
				}
			}
			defer func() { scanHook = nil }()
			scanRows(t, th, 100, 50, func(i int) bool { return !gone[string(key(i))] })
			if len(gone) == 0 || rounds < 2 {
				t.Fatalf("%d winners deleted, %d read rounds: the scan was never short", len(gone), rounds)
			}
		})
	}
}
