package prism_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (§7). Each runs the corresponding experiment from internal/bench at a
// reduced scale and reports the headline virtual-time metric alongside
// the wall-clock cost of simulating it. Run the full set with:
//
//	go test -bench=. -benchmem .
//
// For paper-scale runs use cmd/prism-bench with -threads 40 and larger
// -records/-ops; EXPERIMENTS.md records those results.

import (
	"fmt"
	"sync"
	"testing"

	prism "repro"
	"repro/internal/bench"
	"repro/internal/ycsb"
)

// benchRC is the reduced scale used for testing.B runs.
func benchRC() bench.RunConfig {
	return bench.RunConfig{Threads: 4, Records: 4000, Ops: 8000}
}

// counter reads a counter from the store's metrics snapshot (0 before any
// activity): epoch.enters, nvm.loads.
func counter(store *prism.Store, name string) float64 {
	v, _ := store.Metrics().Value(name)
	return v
}

func epochEnters(store *prism.Store) float64 { return counter(store, "epoch.enters") }

// BenchmarkPut is a direct public-API write benchmark, and doubles as
// the CI smoke run (`make bench-smoke` = -benchtime=1x): it keeps every
// benchmark compiling and runnable at negligible cost. It reports
// epoch-enters/op as the amortization baseline for BenchmarkPutBatch:
// one Put is one epoch critical section; and the put's modeled cost:
// virt-ns/op (key-index traversal, PWB append, HSIT publish — the mean
// includes the inserts of the first lap and any wait for ring space) and
// nvm-loads/op (one: the entry read issued before the append; the
// reclaimer's loads land on the same device and count too).
func BenchmarkPut(b *testing.B) {
	store, err := prism.Open(prism.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	th := store.Thread(0)
	val := make([]byte, 128)
	e0, l0, t0 := epochEnters(store), counter(store, "nvm.loads"), th.Clk.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("bench-put-%08d", i%10000))
		if err := th.Put(key, val); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric((epochEnters(store)-e0)/float64(b.N), "epoch-enters/op")
	b.ReportMetric(float64(th.Clk.Now()-t0)/float64(b.N), "virt-ns/op")
	b.ReportMetric((counter(store, "nvm.loads")-l0)/float64(b.N), "nvm-loads/op")
}

// BenchmarkPutBatch writes the same keys through PutBatch at several
// batch sizes. The epoch-enters/op metric is the amortization headline:
// size=32 must show ~1/32 of BenchmarkPut's one-enter-per-op (the CI
// smoke log prints both for eyeball comparison).
func BenchmarkPutBatch(b *testing.B) {
	for _, size := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			store, err := prism.Open(prism.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			th := store.Thread(0)
			val := make([]byte, 128)
			kvs := make([]prism.KV, size)
			e0 := epochEnters(store)
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				for j := range kvs {
					kvs[j] = prism.KV{
						Key:   []byte(fmt.Sprintf("bench-put-%08d", (i+j)%10000)),
						Value: val,
					}
				}
				if err := th.PutBatch(kvs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric((epochEnters(store)-e0)/float64(b.N), "epoch-enters/op")
		})
	}
}

// BenchmarkPutSharded drives the same multi-writer Put load through one
// store and through a 4-shard router. Each writer owns a Thread handle,
// so the only coupling is the simulated hardware: on one store all
// writers queue on a single NVM append channel; four shards mean four
// device sets. The virt-Kops/s metric is aggregate ops over the
// makespan across thread clocks — the shards=4 row must come out well
// above 2.5x the shards=1 row (the sharding acceptance gate, asserted
// in internal/shard's TestShardScaleSpeedup).
func BenchmarkPutSharded(b *testing.B) {
	const writers = 4
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			store, err := prism.Open(prism.Options{
				NumThreads:        writers,
				Shards:            shards,
				PWBBytesPerThread: 8 << 20,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			val := make([]byte, 1024)
			per := (b.N + writers - 1) / writers
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := store.Thread(w)
					for i := 0; i < per; i++ {
						key := []byte(fmt.Sprintf("w%d-%08d", w, i%10000))
						if err := th.Put(key, val); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			var makespan int64
			for w := 0; w < writers; w++ {
				if now := store.Thread(w).Clk.Now(); now > makespan {
					makespan = now
				}
			}
			if makespan > 0 {
				b.ReportMetric(float64(writers*per)/(float64(makespan)/1e6), "virt-Kops/s")
			}
		})
	}
}

// BenchmarkPutPipelined drives one writer through the async submission
// pipeline at increasing depth: bursts of <depth> PutAsync then a
// drain, the single-connection pipelining model. virt-Kops/s is ops
// over the async-timeline makespan; depth=32 must come out well above
// 3x the depth=1 row (the pipelining acceptance gate, asserted in
// internal/bench's TestPipelineDepthSpeedup). Compare with
// BenchmarkPutSharded: depth scales one connection, shards scale the
// device sets, and the two compound.
func BenchmarkPutPipelined(b *testing.B) {
	val := make([]byte, 128)
	benchPipelined(b, []int{1, 8, 32}, nil, func(th *prism.Thread, i int) *prism.Handle {
		return th.PutAsync([]byte(fmt.Sprintf("bench-pipe-%08d", i%10000)), val)
	})
}

// BenchmarkMixedPipelined is BenchmarkPutPipelined for the stream a
// connection actually sends: SET and GET alternating over keys already in
// the store, depth operations in flight. An admission window is one pass
// over puts, gets and deletes alike (DESIGN.md §4.5), so depth=16 must
// come out several times the depth=1 row; when a window was cut into
// same-kind runs an alternating stream gained nothing past depth 2.
func BenchmarkMixedPipelined(b *testing.B) {
	val := make([]byte, 128)
	key := func(i int) []byte { return []byte(fmt.Sprintf("bench-mixed-%08d", i%1000)) }
	load := func(th *prism.Thread) {
		for i := 0; i < 1000; i++ {
			th.PutAsync(key(i), val)
		}
	}
	benchPipelined(b, []int{1, 16}, load, func(th *prism.Thread, i int) *prism.Handle {
		if i%2 == 0 {
			return th.PutAsync(key(i), val)
		}
		return th.GetAsync(key(i))
	})
}

// benchPipelined drives submit(th, i) for i in [0, b.N) through one
// thread's async pipeline in bursts of depth, each drained before the
// next, and reports ops over the async-timeline makespan. load, if any,
// fills the store through the same pipeline before the measured phase.
func benchPipelined(b *testing.B, depths []int, load func(th *prism.Thread), submit func(th *prism.Thread, i int) *prism.Handle) {
	for _, depth := range depths {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			store, err := prism.Open(prism.Options{
				NumThreads:        1,
				PWBBytesPerThread: 8 << 20,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			th := store.Thread(0)
			if load != nil {
				load(th)
			}
			th.Flush()
			t0 := th.Clk.Now()
			hs := make([]*prism.Handle, 0, depth)
			b.ResetTimer()
			for i := 0; i < b.N; i += depth {
				for j := i; j < i+depth && j < b.N; j++ {
					hs = append(hs, submit(th, j))
				}
				for _, h := range hs {
					if err := h.Wait(); err != nil {
						b.Fatal(err)
					}
				}
				hs = hs[:0]
			}
			b.StopTimer()
			th.Flush()
			if makespan := th.Clk.Now() - t0; makespan > 0 {
				b.ReportMetric(float64(b.N)/(float64(makespan)/1e6), "virt-Kops/s")
			}
		})
	}
}

// BenchmarkScanResident scans 50 rows whose values are all still in the
// PWB: no SSD read, so virt-ns/scan is the index walk plus the rows'
// NVM round trips — overlapped through the same frame as an admission
// window's operations, not paid one after another.
func BenchmarkScanResident(b *testing.B) {
	store, err := prism.Open(prism.Options{
		NumThreads:        1,
		PWBBytesPerThread: 8 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	th := store.Thread(0)
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bench-scan-%08d", i))
		if err := th.Put(keys[i], make([]byte, 1024)); err != nil {
			b.Fatal(err)
		}
	}
	t0 := th.Clk.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := 0
		if err := th.Scan(keys[i*50%(len(keys)-50)], 50, func(prism.KV) bool { rows++; return true }); err != nil || rows != 50 {
			b.Fatalf("scan yielded %d rows, %v", rows, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(th.Clk.Now()-t0)/float64(b.N), "virt-ns/scan")
}

// BenchmarkScanMerged scans 50 rows through the shard router over data
// that is all on flash at the start: what a hash-placed scan costs when it
// has to be merged. rows-read/scan is core.read_path summed over the
// shards — 50, each row once, where merging whole per-shard scans read 150
// at 3x2 and 200 at 4x1; shard-scans/scan is the index walks, a covering
// set of the shards (2 of 3 at two replicas, all 4 at one); virt-ns/scan
// is the router thread's clock. The rows are written in 64 strided runs
// to one SSD a shard, so the rows of one scan — 50 from a multiple of 64,
// clear of the last runs, which recovery drains from the PWB in key order
// — are far apart on flash and each is its own read IO: the row count is
// exact, whatever has been cached by then.
func BenchmarkScanMerged(b *testing.B) {
	for _, tc := range []struct{ shards, replicas int }{{3, 2}, {4, 1}} {
		b.Run(fmt.Sprintf("%dx%d", tc.shards, tc.replicas), func(b *testing.B) {
			store, err := prism.Open(prism.Options{
				NumThreads:        1,
				Shards:            tc.shards,
				Replicas:          tc.replicas,
				PWBBytesPerThread: 128 << 10,
				NumSSDs:           1,
				SVCBytes:          16 << 20,
				DisableAutoRepair: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			th := store.Thread(0)
			const records, runs = 6400, 64
			keys := make([][]byte, records)
			for r := 0; r < runs; r++ {
				for i := r; i < records; i += runs {
					keys[i] = []byte(fmt.Sprintf("bench-scan-%08d", i))
					if err := th.Put(keys[i], make([]byte, 1024)); err != nil {
						b.Fatal(err)
					}
				}
			}
			store.Crash()
			if _, err := store.Recover(); err != nil {
				b.Fatal(err)
			}
			s0, t0 := store.Stats(), th.Clk.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows := 0
				if err := th.Scan(keys[i%(records/runs-1)*runs], 50, func(prism.KV) bool { rows++; return true }); err != nil || rows != 50 {
					b.Fatalf("scan yielded %d rows, %v", rows, err)
				}
			}
			b.StopTimer()
			s1 := store.Stats()
			b.ReportMetric(float64(s1.SVCHits+s1.PWBHits+s1.VSReads-s0.SVCHits-s0.PWBHits-s0.VSReads)/float64(b.N), "rows-read/scan")
			b.ReportMetric(float64(s1.Scans-s0.Scans)/float64(b.N), "shard-scans/scan")
			b.ReportMetric(float64(th.Clk.Now()-t0)/float64(b.N), "virt-ns/scan")
		})
	}
}

func reportKops(b *testing.B, name string, kops float64) {
	b.ReportMetric(kops, name+"-Kops/s")
}

func BenchmarkFig7YCSBThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, res := bench.Fig7(benchRC())
		reportKops(b, "prism-C", res[bench.EnginePrism][ycsb.WorkloadC].KOpsPerSec())
		reportKops(b, "kvell-C", res[bench.EngineKVell][ycsb.WorkloadC].KOpsPerSec())
	}
}

func BenchmarkTable3Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table3(benchRC())
	}
}

func BenchmarkFig8PrismVsSLMDB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, res := bench.Fig8(benchRC())
		reportKops(b, "prism-A", res[bench.EnginePrism][ycsb.WorkloadA].KOpsPerSec())
		reportKops(b, "slmdb-A", res[bench.EngineSLMDB][ycsb.WorkloadA].KOpsPerSec())
	}
}

func BenchmarkTable4SLMDBLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table4(benchRC())
	}
}

func BenchmarkFig9SkewSweep(b *testing.B) {
	rc := benchRC()
	rc.Records = 2000
	rc.Ops = 3000
	for i := 0; i < b.N; i++ {
		bench.Fig9(rc)
	}
}

func BenchmarkFig10aLargeDataset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig10a(benchRC())
	}
}

func BenchmarkFig10bNutanix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig10b(benchRC())
	}
}

func BenchmarkFig11ThreadCombining(b *testing.B) {
	rc := benchRC()
	rc.Threads = 8
	for i := 0; i < b.N; i++ {
		bench.Fig11(rc)
	}
}

func BenchmarkFig12WriteAmplification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig12(benchRC())
	}
}

func BenchmarkFig13SSDScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig13(benchRC())
	}
}

func BenchmarkFig14SSDLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig14(benchRC())
	}
}

func BenchmarkFig15aPWBSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig15a(benchRC())
	}
}

func BenchmarkFig15bSVCSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig15b(benchRC())
	}
}

func BenchmarkFig16MulticoreScalability(b *testing.B) {
	rc := benchRC()
	rc.Records = 2000
	rc.Ops = 6000
	for i := 0; i < b.N; i++ {
		bench.Fig16(rc)
	}
}

func BenchmarkFig17GCTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, stats := bench.Fig17(benchRC())
		b.ReportMetric(float64(stats.VS.GCRuns), "gc-runs")
	}
}

func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Ablation(benchRC())
	}
}

func BenchmarkNVMSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.NVMSpace(benchRC())
	}
}

func BenchmarkRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Recovery(benchRC())
	}
}
