// YCSB example: drive the Prism public API with a read-mostly workload
// (YCSB-B of Table 2) from several concurrent threads and report
// throughput and tail latency in virtual time — a miniature of the
// paper's Figure 7 methodology.
package main

import (
	"fmt"
	"log"
	"sync"

	"repro"
	"repro/internal/histogram"
	"repro/internal/ycsb"
)

const (
	threads = 4
	records = 5000
	ops     = 20000
)

func main() {
	store, err := prism.Open(prism.Options{
		NumThreads:        threads,
		PWBBytesPerThread: 512 << 10,
		HSITCapacity:      records * 4,
		NumSSDs:           2,
		SSDBytes:          32 << 20,
		SVCBytes:          1 << 20, // ~20% of the 5 MB dataset
	})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	// Load phase: insert `records` keys.
	loadCfg := ycsb.Config{Workload: ycsb.Load, InsertStart: 1, ValueSize: 1024}
	loadShared := ycsb.NewShared(loadCfg)
	parallel(func(ti int) {
		t := store.Thread(ti)
		gen := ycsb.NewGenerator(loadCfg, loadShared, uint64(ti)+1)
		for i := 0; i < records/threads; i++ {
			op := gen.Next()
			if err := t.Put(op.Key, gen.Value(uint64(i))); err != nil {
				log.Fatal(err)
			}
		}
	})

	// Measured phase: YCSB-B (95% reads, 5% updates, zipfian 0.99).
	runCfg := ycsb.Config{Workload: ycsb.WorkloadB, Records: records, Zipfian: 0.99, ValueSize: 1024}
	runShared := ycsb.NewShared(runCfg)
	hists := make([]*histogram.H, threads)
	durations := make([]int64, threads)
	parallel(func(ti int) {
		t := store.Thread(ti)
		gen := ycsb.NewGenerator(runCfg, runShared, uint64(ti)+100)
		h := histogram.New()
		start := t.Clk.Now()
		for i := 0; i < ops/threads; i++ {
			op := gen.Next()
			t0 := t.Clk.Now()
			var opErr error
			switch op.Kind {
			case ycsb.OpUpdate:
				opErr = t.Put(op.Key, gen.Value(uint64(i)))
			default:
				_, opErr = t.Get(op.Key)
			}
			if opErr != nil && opErr != prism.ErrNotFound {
				log.Fatal(opErr)
			}
			h.Record(t.Clk.Now() - t0)
		}
		hists[ti] = h
		durations[ti] = t.Clk.Now() - start
	})

	all := histogram.New()
	var maxDur int64
	for ti := 0; ti < threads; ti++ {
		all.Merge(hists[ti])
		if durations[ti] > maxDur {
			maxDur = durations[ti]
		}
	}
	fmt.Printf("YCSB-B: %.1f Kops/sec over %d threads\n",
		float64(ops)/(float64(maxDur)/1e9)/1e3, threads)
	fmt.Printf("latency: %s\n", all.Summarize())

	m := store.Metrics()
	svc, pwb, vs := count(m, "core.read_path", "source", "svc"), count(m, "core.read_path", "source", "pwb"),
		count(m, "core.read_path", "source", "vs")
	total := float64(svc + pwb + vs)
	fmt.Printf("read breakdown: SVC %.0f%%, PWB %.0f%%, SSD %.0f%%\n",
		100*float64(svc)/total, 100*float64(pwb)/total, 100*float64(vs)/total)
}

// count reads a counter from the store's metrics, by its METRICS.md name:
// the sum of the series called name that carry labels (key/value pairs).
// A series the store does not export stops the example.
func count(m prism.Metrics, name string, labels ...string) int64 {
	v, ok := m.Lookup(name, labels...)
	if !ok {
		log.Fatalf("no metric %s%v", name, labels)
	}
	return int64(v)
}

func parallel(fn func(ti int)) {
	var wg sync.WaitGroup
	for ti := 0; ti < threads; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			fn(ti)
		}(ti)
	}
	wg.Wait()
}
