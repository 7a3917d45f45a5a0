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
// pass can hand records over to it: a cache that has filled once, as a
// loaded store's has, so it admits no fillers.
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
		reclaimWatermark:  0.95,
		DisableSVC:        !withSVC,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	fillOnce(tb, s)
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
// per migrated record: wall ns, virtual ns (pwb.reclaim_ns), heap bytes
// and heap objects, and how many records the pass handed to the SVC.
// write-only is the pass nobody reads behind (it must hand over nothing
// and allocate per chunk); read-recent has every record read once before
// the pass, so every record is handed over: an entry and a copy of the
// value each.
func BenchmarkReclaimPass(b *testing.B) {
	b.Run("write-only", func(b *testing.B) { benchReclaimPass(b, false) })
	b.Run("read-recent", func(b *testing.B) { benchReclaimPass(b, true) })
}

func benchReclaimPass(b *testing.B, read bool) {
	const records = 2000
	r := newReclaimBench(b, records, true)
	st := reg(b, r.s)
	migrated0, admits0, virt0 := st.n("pwb.live_migrated"), st.n("svc.reclaim_admits"), st.n("pwb.reclaim_ns")
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
		// The pass starts at the writer's present, as a kick from its puts
		// would start it: a pass thread left behind drifts past the NVM
		// channel's horizon, is pulled forward, and its virtual time
		// measures the pull.
		r.p.Clk.AdvanceTo(r.s.Thread(0).Clk.Now())
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
	st = reg(b, r.s)
	n := float64(st.n("pwb.live_migrated") - migrated0)
	if n != float64(b.N*records) {
		b.Fatalf("migrated %.0f records in %d passes of %d", n, b.N, records)
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/n, "ns/record")
	b.ReportMetric(float64(st.n("pwb.reclaim_ns")-virt0)/n, "virt-ns/record")
	b.ReportMetric(float64(bytes)/n, "B/record")
	b.ReportMetric(float64(objects)/n, "allocs/record")
	b.ReportMetric(float64(st.n("svc.reclaim_admits")-admits0)/n, "admits/record")
}

// TestReclaimPassAllocs is the allocation gate of the reclaim path: a
// steady-state pass allocates nothing, per record, per chunk or per
// pass: values are views into the ring, the settle closure stays on the
// stack, a chunk goes to the device as one request with no completion
// slice (ssd.Device.Write), the ring's grant callback is bound once, and
// the scratch slices, chunk buffers, entry slices and device staging
// buffers are all reused. 1,000 records of 1 KiB are two chunks and
// 3,000 are six. A 64-byte completion slice per chunk and a closure per
// pass were ~0.2 bytes_per_op on the benchmark's write-churn, all of it,
// and how many passes timing made set its spread between runs.
// The measured function includes the puts that refill the ring, which
// allocate nothing.
func TestReclaimPassAllocs(t *testing.T) {
	checkReclaimPassAllocs(t, false)
}

// TestWriteOnlyReclaimAdmitsNothing is the same gate with the cache on,
// once it has filled: nobody reads, so the read-recency filter is empty,
// and no overwrite drops a cached copy a read wanted, so the cached plane
// is too: a pass hands nothing to the SVC and still allocates nothing
// (the benchmark's write-churn runs with a cache its load
// filled and nothing reads: one entry per migrated record there is +1.9
// allocs_per_op and +1 KiB bytes_per_op).
func TestWriteOnlyReclaimAdmitsNothing(t *testing.T) {
	checkReclaimPassAllocs(t, true)
}

func checkReclaimPassAllocs(t *testing.T, withSVC bool) {
	perRound := func(records int) float64 {
		r := newReclaimBench(t, records, withSVC)
		base := reg(t, r.s) // the fill's hand-offs are behind it
		allocs := testing.AllocsPerRun(5, func() {
			r.load(t)
			r.pass()
		})
		st := reg(t, r.s)
		if st.n("pwb.live_migrated") == 0 || r.s.pop.read.n.Load() != 0 || r.s.pop.cached.n.Load() != 0 {
			t.Fatalf("write-only passes migrated %d records; the filter holds %d read bits, %d cached", st.n("pwb.live_migrated"), r.s.pop.read.n.Load(), r.s.pop.cached.n.Load())
		}
		if withSVC {
			admits, skips := st.n("svc.reclaim_admits")-base.n("svc.reclaim_admits"), st.n("svc.reclaim_admit_skips")-base.n("svc.reclaim_admit_skips")
			if admits != 0 || skips != 0 || st.n("svc.entries") != 0 {
				t.Fatalf("write-only passes handed over %d records (skipped %d); the cache holds %d entries", admits, skips, st.n("svc.entries"))
			}
		}
		return allocs
	}
	small, large := perRound(1000), perRound(3000)
	t.Logf("allocations per round: %.0f at 1,000 records, %.0f at 3,000", small, large)
	if small != 0 || large != 0 {
		t.Errorf("passes allocated %.0f objects over 1,000 live records (2 chunks), %.0f over 3,000 (6 chunks)", small, large)
	}
}

// The pass scratch is sized by the ring, not by the largest pass so far:
// a pass three times the size of every earlier one does not reallocate
// it. (Grown a step at a time it cost ~100 KiB whenever timing produced a
// new largest pass — the whole spread of the benchmark's bytes_per_op.)
func TestReclaimScratchSizedOnce(t *testing.T) {
	r := newReclaimBench(t, 1000, false) // warm-up passes of 1,000 live records; the ring holds 4,000
	before, migrated0 := cap(r.s.reclaimers[0].live), reg(t, r.s).n("pwb.live_migrated")
	for i := len(r.keys); i < 3000; i++ {
		r.keys = append(r.keys, key(i))
	}
	r.load(t)
	r.pass()
	if got := reg(t, r.s).n("pwb.live_migrated") - migrated0; got != 3000 {
		t.Fatalf("the large pass migrated %d records, want 3,000", got)
	}
	if after := cap(r.s.reclaimers[0].live); after != before || before < 3000 {
		t.Fatalf("scratch capacity %d after 1,000-record passes, %d after a 3,000-record pass", before, after)
	}
}

// BenchmarkGet measures a lone Get of a 512-byte value by the medium that
// serves it — the SVC, the PWB, or Value Storage with no cache to admit it
// into — in wall ns, virtual ns (virt-ns/op, the thread's clock on idle
// devices) and heap bytes and objects: the read path's layer-level line.
func BenchmarkGet(b *testing.B) {
	const keys = 64
	for _, c := range []struct {
		name, source string
		open         func(b *testing.B) (*Store, *Thread)
	}{
		{"svc", "svc", func(b *testing.B) (*Store, *Thread) {
			return vsOnlyStore(b, keys, 0, nil) // the warm-up reads admit every key
		}},
		{"pwb", "pwb", func(b *testing.B) (*Store, *Thread) {
			s := small(b, func(o *Options) { o.NumThreads, o.PWBBytesPerThread = 1, 1<<20 })
			th := s.Thread(0)
			for i := range keys {
				if err := th.Put(aKey(i), aValue(i)); err != nil {
					b.Fatal(err)
				}
			}
			return s, th
		}},
		{"flash", "vs", func(b *testing.B) (*Store, *Thread) {
			return vsOnlyStore(b, keys, apart, func(o *Options) { o.DisableSVC = true })
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			s, th := c.open(b)
			ks := make([][]byte, keys)
			for i := range ks {
				ks[i] = aKey(i)
				if _, err := th.Get(ks[i]); err != nil { // warm: scratch at its steady size
					b.Fatal(err)
				}
			}
			served := reg(b, s).n("core.read_path", "source", c.source)
			b.ReportAllocs()
			b.ResetTimer()
			t0 := th.Clk.Now()
			for i := 0; i < b.N; i++ {
				if _, err := th.Get(ks[i%keys]); err != nil {
					b.Fatal(err)
				}
			}
			virt := th.Clk.Now() - t0
			b.StopTimer()
			if n := reg(b, s).n("core.read_path", "source", c.source) - served; n != int64(b.N) {
				b.Fatalf("%d of %d gets served from %s", n, b.N, c.source)
			}
			b.ReportMetric(float64(virt)/float64(b.N), "virt-ns/op")
		})
	}
}
