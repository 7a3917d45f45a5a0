// Command prism-trace records and replays workload traces.
//
// Record a workload to a file (deterministic given -seed):
//
//	prism-trace -record trace.txt -workload E -records 10000 -ops 50000
//
// Replay a trace against an engine and report throughput/latency:
//
//	prism-trace -replay trace.txt -engine prism
//	prism-trace -replay trace.txt -engine kvell
//
// Replaying the same trace against two engines compares them on an
// *identical* request sequence — no generator variance — which is also
// how a captured production trace (e.g., the Nutanix workload of §7.5,
// known publicly only by its op mix) would be used.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/histogram"
	"repro/internal/ycsb"
)

func main() {
	var (
		record     = flag.String("record", "", "write a generated trace to this file")
		replay     = flag.String("replay", "", "replay a trace file against -engine")
		engineName = flag.String("engine", "prism", "engine for -replay")
		workload   = flag.String("workload", "A", "workload for -record (A-E, N)")
		records    = flag.Int("records", 10000, "keyspace size (load phase and generator)")
		ops        = flag.Int("ops", 20000, "ops to record")
		value      = flag.Int("value", 1024, "value size in bytes")
		zipf       = flag.Float64("zipf", 0.99, "zipfian coefficient for -record")
		seed       = flag.Uint64("seed", 42, "generator seed for -record")
		metrics    = flag.Bool("metrics", false, "after -replay, print the final metrics snapshot as JSON (see METRICS.md)")
	)
	flag.Parse()

	switch {
	case *record != "":
		doRecord(*record, ycsb.Workload((*workload)[0]), *records, *ops, *value, *zipf, *seed)
	case *replay != "":
		doReplay(*replay, *engineName, *records, *value, *metrics)
	default:
		fmt.Fprintln(os.Stderr, "need -record <file> or -replay <file>")
		os.Exit(1)
	}
}

func doRecord(path string, w ycsb.Workload, records, ops, value int, zipf float64, seed uint64) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	cfg := ycsb.Config{Workload: w, Records: uint64(records), Zipfian: zipf, ValueSize: value}
	gen := ycsb.NewGenerator(cfg, ycsb.NewShared(cfg), seed)
	fmt.Fprintf(f, "# workload=%c records=%d zipf=%v seed=%d\n", w, records, zipf, seed)
	if _, err := ycsb.Capture(f, gen, ops); err != nil {
		fatal(err)
	}
	fmt.Printf("recorded %d ops of workload %c to %s\n", ops, w, path)
}

func doReplay(path, engineName string, records, value int, metrics bool) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	traceOps, err := ycsb.ReadTrace(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	rc := bench.RunConfig{Threads: 1, Records: records, ValueSize: value} // the trace is one sequence
	st, err := bench.NewEngine(engineName, rc)
	if err != nil {
		fatal(err)
	}
	defer st.Close()

	// Load the keyspace first so reads/updates hit existing keys.
	bench.Load(st, engineName, rc)

	kv := st.Thread(0)
	clk := kv.Clock()
	h := histogram.New()
	val := make([]byte, value)
	start := clk.Now()
	errors := 0
	rep := ycsb.NewReplayer(traceOps)
	for {
		op, ok := rep.Next()
		if !ok {
			break
		}
		t0 := clk.Now()
		var err error
		switch op.Kind {
		case ycsb.OpInsert, ycsb.OpUpdate:
			err = kv.Put(op.Key, val)
		case ycsb.OpRead:
			_, err = kv.Get(op.Key)
		case ycsb.OpScan:
			err = kv.Scan(op.Key, op.ScanLen, func(k, v []byte) bool { return true })
		}
		if err != nil && err != engine.ErrNotFound {
			errors++
		}
		h.Record(clk.Now() - t0)
	}
	dur := clk.Now() - start
	fmt.Printf("%s: replayed %d ops in %.2f virtual ms — %.1f Kops/sec, %d errors\n",
		engineName, rep.Len(), float64(dur)/1e6,
		float64(rep.Len())/(float64(dur)/1e9)/1e3, errors)
	fmt.Printf("latency: %s\n", h.Summarize())
	if metrics {
		if src, ok := st.(bench.MetricsSource); ok {
			fmt.Println(src.Metrics().JSON())
		} else {
			fmt.Println("{}")
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
