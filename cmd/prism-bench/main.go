// Command prism-bench regenerates the paper's evaluation (§7): every
// table and figure has a named experiment that prints the corresponding
// rows or series, measured in virtual time on the simulated devices.
//
// Usage:
//
//	prism-bench -run fig7                # one experiment
//	prism-bench -run fig7,table3,fig11   # several
//	prism-bench -run all                 # everything (slow)
//	prism-bench -list                    # names
//
// Scale knobs (defaults are laptop-friendly; the paper's scale is 100M
// records x 100M ops on a 40-core testbed):
//
//	-threads N   simulated application threads (default 8)
//	-records N   loaded keyspace (default 10000)
//	-ops N       measured operations (default 20000)
//	-value N     value size in bytes (default 1024)
//	-zipf F      zipfian coefficient (default 0.99)
//	-shards N    run Prism as N independent stores behind the hash router
//	             (default 1; see the shardscale experiment for a sweep)
//	-replicas N  place each key on N shards of the router ring (default 1
//	             = unreplicated; see the replication experiment)
//	-pipeline N  submit ops through the async pipeline, draining every N
//	             submissions (default 1 = synchronous; see the
//	             pipelinedepth experiment for a sweep)
//	-placement M key placement across shards: hash (default) or range
//	             (contiguous key ranges per shard; see the rangescan
//	             experiment for the locality comparison)
//	-split KEYS  comma-separated range boundary keys for -placement range
//	             (empty = one all-covering range, split online)
//	-tiers SPEC  heterogeneous SSD array with hot/cold tiering: a comma-
//	             separated device list, each size[:writeMBps[:readMBps]]
//	             with K/M/G suffixes, e.g. 64M:5000,512M:1000 (Prism
//	             only; see the tiering experiment for the built-in pair)
//
// Observability (METRICS.md):
//
//	-metrics            after the tables, print one document with the
//	                    final obs snapshot of every Prism store the
//	                    experiments opened (the last lines of output)
//	-metrics-format F   snapshot format: json (default) or prom
//	                    (Prometheus/OpenMetrics text)
//	-metrics-every MS   additionally sample every metric each MS of
//	                    virtual time (a Fig-17-style timeline per capture,
//	                    JSON only)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		run       = flag.String("run", "", "comma-separated experiment names, or 'all'")
		list      = flag.Bool("list", false, "list experiment names and exit")
		csvDir    = flag.String("csv", "", "also write each table as CSV into this directory")
		metrics   = flag.Bool("metrics", false, "print a final metrics-snapshot document (see METRICS.md)")
		mformat   = flag.String("metrics-format", "json", "metrics output format: json or prom")
		every     = flag.Int64("metrics-every", 0, "also sample metrics every N virtual ms (implies -metrics)")
		runConfig = bench.Flags(flag.CommandLine)
	)
	flag.Parse()
	rc, err := runConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *mformat != "json" && *mformat != "prom" {
		fmt.Fprintf(os.Stderr, "unknown -metrics-format %q (json or prom)\n", *mformat)
		os.Exit(1)
	}
	if *list || *run == "" {
		fmt.Println("experiments:")
		for _, n := range bench.ExperimentNames() {
			fmt.Printf("  %s\n", n)
		}
		if *run == "" {
			fmt.Println("\nrun with: prism-bench -run <name>[,<name>...] | all")
		}
		return
	}

	var mc *bench.MetricsCollector
	if *metrics || *every > 0 {
		mc = &bench.MetricsCollector{}
		rc.Metrics = mc
		rc.SampleNS = *every * 1_000_000
	}

	names := strings.Split(*run, ",")
	if *run == "all" {
		names = bench.ExperimentNames()
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		exp, ok := bench.Experiments[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", name)
			os.Exit(1)
		}
		t0 := time.Now()
		for i, tab := range exp(rc) {
			fmt.Println(tab)
			if *csvDir != "" {
				path := fmt.Sprintf("%s/%s_%d.csv", *csvDir, name, i)
				if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "csv: %v\n", err)
					os.Exit(1)
				}
			}
		}
		fmt.Printf("(%s took %v)\n\n", name, time.Since(t0).Round(time.Millisecond))
	}
	if mc != nil {
		doc := mc.JSON() + "\n"
		if *mformat == "prom" {
			doc = mc.OpenMetrics()
		}
		// The metrics document is the last thing printed, so scripts
		// can extract it with e.g. `awk '/^{/,0'` (json) or
		// `awk '/^# /,0'` (prom).
		fmt.Print(doc)
	}
}
