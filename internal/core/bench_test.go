package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// reclaimBench is a one-ring store in the reclaimer's steady state: each
// round overwrites the same `records` keys with 1 KiB values (so the ring
// holds that many live records and the chunks of the round before empty
// out and recycle), runs one pass, and lets epoch grace turn the pass
// into a grant for the next one to apply. The ring holds two rounds, so
// the background reclaimer never triggers and the caller owns every pass.
// With a cache (withSVC; the default 4 MiB holds every record here) the
// pass can hand records over to it.
type reclaimBench struct {
	s    *Store
	keys [][]byte
	val  []byte
	p    *Thread // the caller's pass thread
}

func newReclaimBench(tb testing.TB, records int, withSVC bool) *reclaimBench {
	s, err := Open(Options{
		NumThreads:        1,
		PWBBytesPerThread: 4 * records * 1040,
		HSITCapacity:      1 << 14,
		ReclaimWatermark:  0.95,
		DisableSVC:        !withSVC,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	r := &reclaimBench{s: s, val: make([]byte, 1024), p: s.newThread(0, sim.NewRNG(1), nil, nil)}
	for i := 0; i < records; i++ {
		r.keys = append(r.keys, key(i))
	}
	for i := 0; i < 3; i++ { // warm: buffers, scratch and free lists reach their steady size
		r.load(tb)
		r.pass()
	}
	return r
}

func (r *reclaimBench) load(tb testing.TB) {
	th := r.s.Thread(0)
	for _, k := range r.keys {
		if err := th.Put(k, r.val); err != nil {
			tb.Fatal(err)
		}
	}
}

func (r *reclaimBench) pass() {
	r.s.reclaimBuffer(r.p)
	r.s.em.Barrier()
}

// readAll reads every key once, from the ring: all of them read-recent.
func (r *reclaimBench) readAll(tb testing.TB) {
	th := r.s.Thread(0)
	for _, k := range r.keys {
		if _, err := th.Get(k); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkReclaimPass measures one reclaim pass over 2,000 live 1 KiB
// records — scan, HSIT check, chunk fill, device write, republish —
// per migrated record: wall ns, heap bytes and heap objects, and how many
// records the pass handed to the SVC. write-only is the pass nobody reads
// behind (it must hand over nothing and allocate per chunk); read-recent
// has every record read once before the pass, so every record is handed
// over: an entry and a copy of the value each.
func BenchmarkReclaimPass(b *testing.B) {
	b.Run("write-only", func(b *testing.B) { benchReclaimPass(b, false) })
	b.Run("read-recent", func(b *testing.B) { benchReclaimPass(b, true) })
}

func benchReclaimPass(b *testing.B, read bool) {
	const records = 2000
	r := newReclaimBench(b, records, true)
	migrated0, admits0 := r.s.Stats().PWBLiveMigrated, r.s.Stats().ReclaimAdmits
	var ms0, ms1 runtime.MemStats
	var elapsed time.Duration
	var bytes, objects uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r.load(b)
		if read {
			r.readAll(b)
			r.s.cache.Sync() // the puts' invalidations and the gets' touches are the manager's past
		}
		runtime.ReadMemStats(&ms0)
		b.StartTimer()
		t0 := time.Now()
		r.pass()
		elapsed += time.Since(t0)
		b.StopTimer()
		runtime.ReadMemStats(&ms1)
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
		objects += ms1.Mallocs - ms0.Mallocs
		b.StartTimer()
	}
	b.StopTimer()
	n := float64(r.s.Stats().PWBLiveMigrated - migrated0)
	if n != float64(b.N*records) {
		b.Fatalf("migrated %.0f records in %d passes of %d", n, b.N, records)
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/n, "ns/record")
	b.ReportMetric(float64(bytes)/n, "B/record")
	b.ReportMetric(float64(objects)/n, "allocs/record")
	b.ReportMetric(float64(r.s.Stats().ReclaimAdmits-admits0)/n, "admits/record")
}

// TestReclaimPassAllocs is the allocation gate of the reclaim path: a
// steady-state pass allocates one object per chunk it writes — the
// device's completion slice — and nothing per record or per pass: values
// are views into the ring, the settle closure stays on the stack, and the
// scratch slices, chunk buffers, entry slices and device staging buffers
// are all reused. 1,000 records of 1 KiB are two chunks and 3,000 are
// six, so the bounds are the measured 4 and 8 with room for one stray
// object, not for a second object per chunk (at ~504 records a chunk, 32
// bytes per chunk is +17% bytes_per_op on the benchmark's write-churn).
// The measured function includes the puts that refill the ring, which
// allocate nothing.
func TestReclaimPassAllocs(t *testing.T) {
	checkReclaimPassAllocs(t, false)
}

// TestWriteOnlyReclaimAdmitsNothing is the same gate with the cache on:
// nobody reads, so the read-recency filter is empty, a pass hands nothing
// to the SVC and still allocates per chunk, not per record (the
// benchmark's write-churn runs with a cache it never uses: one entry per
// migrated record there is +1.9 allocs_per_op and +1 KiB bytes_per_op).
func TestWriteOnlyReclaimAdmitsNothing(t *testing.T) {
	checkReclaimPassAllocs(t, true)
}

func checkReclaimPassAllocs(t *testing.T, withSVC bool) {
	perRound := func(records int) float64 {
		r := newReclaimBench(t, records, withSVC)
		allocs := testing.AllocsPerRun(5, func() {
			r.load(t)
			r.pass()
		})
		if st := r.s.Stats(); st.PWBLiveMigrated == 0 || st.ReclaimAdmits != 0 || st.ReclaimAdmitSkips != 0 || st.SVC.Entries != 0 || r.s.pop.read.n.Load() != 0 {
			t.Fatalf("write-only passes migrated %d records, handed over %d (skipped %d); the cache holds %d entries, the filter %d bits",
				st.PWBLiveMigrated, st.ReclaimAdmits, st.ReclaimAdmitSkips, st.SVC.Entries, r.s.pop.read.n.Load())
		}
		return allocs
	}
	small, large := perRound(1000), perRound(3000)
	t.Logf("allocations per round: %.0f at 1,000 records, %.0f at 3,000", small, large)
	if small > 5 {
		t.Errorf("a pass over 1,000 live records (2 chunks) allocated %.0f objects", small)
	}
	if large-small > 5 {
		t.Errorf("4 more chunks cost %.0f more objects: %.0f at 1,000 records, %.0f at 3,000", large-small, small, large)
	}
}

// The pass scratch is sized by the ring, not by the largest pass so far:
// a pass three times the size of every earlier one does not reallocate
// it. (Grown a step at a time it cost ~100 KiB whenever timing produced a
// new largest pass — the whole spread of the benchmark's bytes_per_op.)
func TestReclaimScratchSizedOnce(t *testing.T) {
	r := newReclaimBench(t, 1000, false) // warm-up passes of 1,000 live records; the ring holds 4,000
	before, migrated0 := cap(r.s.reclaimers[0].live), r.s.Stats().PWBLiveMigrated
	for i := len(r.keys); i < 3000; i++ {
		r.keys = append(r.keys, key(i))
	}
	r.load(t)
	r.pass()
	if got := r.s.Stats().PWBLiveMigrated - migrated0; got != 3000 {
		t.Fatalf("the large pass migrated %d records, want 3,000", got)
	}
	if after := cap(r.s.reclaimers[0].live); after != before || before < 3000 {
		t.Fatalf("scratch capacity %d after 1,000-record passes, %d after a 3,000-record pass", before, after)
	}
}
