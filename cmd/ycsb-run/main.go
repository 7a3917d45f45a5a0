// Command ycsb-run drives one YCSB workload (Table 2) against any of the
// implemented engines and prints throughput and the latency distribution
// — the smallest unit of the paper's evaluation.
//
//	ycsb-run -engine prism -workload C -threads 8 -records 20000 -ops 50000
//	ycsb-run -engine kvell -workload E -zipf 1.2
//	ycsb-run -engine prism -workload A -metrics   # + JSON metrics snapshot
//	ycsb-run -engine prism -workload A -shards 4  # sharded scale-out
//	ycsb-run -engine prism -workload A -pipeline 32  # async pipelining
//	ycsb-run -connect 127.0.0.1:6379 -workload A -conns 8  # wire mode
//
// Engines: prism, kvell, matrixkv, rocksdb-nvm, slm-db.
// Workloads: L (load only), A, B, C, D, E, N (Nutanix mix).
// -shards N runs Prism as N independent stores behind the hash router
// (baselines ignore it).
// -replicas N places each key on N shards of the router ring with
// last-writer-wins replication (Prism only; requires -shards >= N).
// -placement range routes keys by contiguous key ranges instead of the
// hash ring (Prism only); -split gives the comma-separated boundary
// keys (empty = one all-covering range, split online).
// -pipeline N submits ops through the engine's async pipeline, draining
// every N submissions (engines without one fall back to sync calls).
// -tiers SPEC runs Prism on a heterogeneous SSD array with hot/cold
// tiering: comma-separated size[:writeMBps[:readMBps]] devices with
// K/M/G suffixes, e.g. -tiers 64M:5000,512M:1000.
// -ssd-write-mbps / -ssd-read-mbps override every simulated device's
// bandwidth while keeping the homogeneous array (Prism only; mutually
// exclusive with -tiers).
// -metrics prints the store's final obs snapshot (METRICS.md) as the last
// output; -metrics-format selects json (default) or prom (Prometheus
// text). Baselines without a registry print {} / nothing.
// -connect ADDR skips the in-process engine entirely and drives the
// workload over RESP against an already-running prism-server (start one
// with cmd/prism-server): -conns connections, each pipelining -pipeline
// commands in flight. Engine-shaping flags are ignored; throughput is
// wall-clock, since the server's virtual clocks are not reachable over
// the wire (use the in-process `wire` experiment for virtual-time
// numbers).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/bench"
	"repro/internal/ssd"
	"repro/internal/ycsb"
)

func main() {
	var (
		engineName = flag.String("engine", "prism", "engine: "+strings.Join(bench.AllEngines, ", "))
		workload   = flag.String("workload", "C", "workload: L, A, B, C, D, E, N")
		metrics    = flag.Bool("metrics", false, "print the final metrics snapshot (see METRICS.md)")
		mformat    = flag.String("metrics-format", "json", "metrics output format: json or prom")
		wmbps      = flag.Int64("ssd-write-mbps", 0, "override every SSD's write bandwidth, MB/s (Prism only; 0 = paper default)")
		rmbps      = flag.Int64("ssd-read-mbps", 0, "override every SSD's read bandwidth, MB/s (Prism only; 0 = paper default)")
		connect    = flag.String("connect", "", "drive the workload over RESP against a running server at this address instead of an in-process engine")
		conns      = flag.Int("conns", 8, "client connections in -connect mode")
		runConfig  = bench.Flags(flag.CommandLine)
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
	if rc.TierSpec != "" && (*wmbps > 0 || *rmbps > 0) {
		fmt.Fprintln(os.Stderr, "-tiers already sets per-device speeds; drop -ssd-write-mbps/-ssd-read-mbps")
		os.Exit(1)
	}

	w := ycsb.Workload(strings.ToUpper(*workload)[0])
	switch w {
	case ycsb.Load, ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC, ycsb.WorkloadD, ycsb.WorkloadE, ycsb.Nutanix:
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(1)
	}

	if *connect != "" {
		runWire(*connect, w, rc, *conns, rc.Pipeline)
		return
	}

	if *wmbps > 0 || *rmbps > 0 {
		rc.PrismMut = func(o *prism.Options) {
			cfgs := make([]ssd.Config, o.NumSSDs)
			for i := range cfgs {
				cfgs[i].Size = o.SSDBytes
				cfgs[i].WriteBandwidth = *wmbps * 1_000_000
				cfgs[i].ReadBandwidth = *rmbps * 1_000_000
			}
			o.SSDConfigs = cfgs
		}
	}
	st, err := bench.NewEngine(*engineName, rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer st.Close()

	load := bench.Load(st, *engineName, rc)
	report("LOAD", load)
	if w != ycsb.Load {
		r := bench.Run(st, *engineName, w, rc)
		report("YCSB-"+string(w), r)
	}
	dev, user := st.WriteAmp()
	if user > 0 {
		fmt.Printf("SSD write amplification: %.2f (%d device bytes / %d user bytes)\n",
			float64(dev)/float64(user), dev, user)
	}
	if *metrics {
		src, ok := st.(bench.MetricsSource)
		switch {
		case ok && *mformat == "prom":
			src.Metrics().WriteOpenMetrics(os.Stdout)
		case ok:
			fmt.Println(src.Metrics().JSON())
		case *mformat == "json":
			fmt.Println("{}")
		}
	}
}

func report(phase string, r bench.Result) {
	fmt.Printf("%-8s %8.1f Kops/sec  (%d ops in %.2f virtual ms, %d errors)\n",
		phase, r.KOpsPerSec(), r.Ops, float64(r.VirtualNS)/1e6, r.Errors)
	fmt.Printf("         latency %s\n", r.Lat)
}

// runWire drives load + workload phases over RESP connections against a
// running server. Throughput is wall-clock: the server's virtual device
// clocks are on the far side of the socket.
func runWire(addr string, w ycsb.Workload, rc bench.RunConfig, conns, depth int) {
	load, err := bench.RunWire(addr, ycsb.Load, rc, conns, depth)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	reportWire("LOAD", load, conns, depth)
	if w != ycsb.Load {
		r, err := bench.RunWire(addr, w, rc, conns, depth)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		reportWire("YCSB-"+string(w), r, conns, depth)
	}
}

func reportWire(phase string, r bench.WireResult, conns, depth int) {
	kops := 0.0
	if r.WallNS > 0 {
		kops = float64(r.Ops) / (float64(r.WallNS) / 1e9) / 1e3
	}
	fmt.Printf("%-8s %8.1f Kops/sec wall  (%d ops in %.2f ms over %d conns x depth %d, %d error replies)\n",
		phase, kops, r.Ops, float64(r.WallNS)/1e6, conns, depth, r.Errors)
}
