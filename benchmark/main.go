// Command benchmark is the repository's benchmark: seven workloads over
// the Prism store, measured end to end with tracing off and layer by
// layer from outside with it on. README.md explains every number.
//
//	benchmark -workload W -seed N -seconds S -trace 0|1   one pass of one workload; the last line is its result
//	benchmark [-seed N] [-repeat R] [-out f.json]          every workload, both passes, as tables
//	benchmark -compare a.json b.json                       two -out files, metric by metric
//	benchmark -describe                                    BENCHMARK.json, from the tables in metrics.go
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one pass of this workload and print its result as the last line")
		seed    = flag.Uint64("seed", 1, "seed of the load generator; set i of -repeat uses seed+i")
		seconds = flag.Float64("seconds", runSeconds, "measured time per workload and pass")
		trace   = flag.Int("trace", 1, "1: with -workload, the per-layer pass; without, both passes. 0: the end-to-end pass only")
		repeat  = flag.Int("repeat", 1, "without -workload: sets of runs")
		out     = flag.String("out", "", "without -workload: write every value to this file, for -compare")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments")
		descr   = flag.Bool("describe", false, "print BENCHMARK.json as this program defines it")
	)
	flag.Parse()
	if *descr {
		os.Stdout.Write(describe())
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "-compare takes two result files")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if runtime.NumCPU() < clients || runtime.GOMAXPROCS(0) < clients {
		fatal(2, fmt.Sprintf("%d client goroutines need %d cores", clients, clients))
	}
	if *seconds <= 0 || *repeat < 1 {
		fatal(2, "-seconds and -repeat must be positive")
	}
	if *name == "" {
		ok, err := runAll(os.Stdout, *seed, *seconds, *repeat, *trace != 0, *out)
		if err != nil {
			fatal(1, err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	wi, w := findWorkload(*name)
	if w == nil {
		fatal(2, fmt.Sprintf("unknown workload %q", *name))
	}
	pass := endToEndPass
	if *trace != 0 {
		pass = layerPass
	}
	r, err := pass(wi, *seed, *seconds)
	if err != nil {
		fatal(1, err)
	}
	fmt.Print(r.attribution)
	line, err := json.Marshal(r)
	if err != nil {
		fatal(1, err)
	}
	fmt.Printf("%s\n", line)
	if !r.Correct {
		os.Exit(1)
	}
}

func fatal(code int, msg any) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	os.Exit(code)
}
