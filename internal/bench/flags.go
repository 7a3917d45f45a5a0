package bench

import (
	"errors"
	"flag"
	"fmt"

	prism "repro"
)

// Flags declares on fs the flags the harness CLIs share — the scale of
// the run, the client window, and Prism's router and tier configuration
// — and returns the function that, once fs is parsed, validates them and
// builds the RunConfig.
func Flags(fs *flag.FlagSet) func() (RunConfig, error) {
	var rc RunConfig
	fs.IntVar(&rc.Threads, "threads", 8, "simulated application threads")
	fs.IntVar(&rc.Records, "records", 10000, "records loaded before measuring")
	fs.IntVar(&rc.Ops, "ops", 20000, "operations in the measured phase")
	fs.IntVar(&rc.ValueSize, "value", 1024, "value size in bytes")
	fs.Float64Var(&rc.Zipfian, "zipf", 0.99, "zipfian coefficient")
	fs.Uint64Var(&rc.Seed, "seed", 42, "workload seed")
	fs.IntVar(&rc.Batch, "batch", 1, "group consecutive same-kind ops into PutBatch/MultiGet windows of this size")
	fs.IntVar(&rc.Pipeline, "pipeline", 1, "submit ops through the async pipeline, draining every N submissions (Prism only)")
	fs.IntVar(&rc.Shards, "shards", 1, "run Prism as this many independent stores behind the hash router")
	fs.IntVar(&rc.Replicas, "replicas", 1, "place each key on this many shards of the router ring (Prism only)")
	fs.StringVar(&rc.Placement, "placement", "hash", "key placement across shards: hash or range (Prism only)")
	split := fs.String("split", "", "comma-separated range boundary keys for -placement range")
	fs.StringVar(&rc.TierSpec, "tiers", "", "heterogeneous SSD array with hot/cold tiering: size[:writeMBps[:readMBps]],... (Prism only)")
	return func() (RunConfig, error) {
		if _, err := prism.ParseTierSpec(rc.TierSpec); err != nil {
			return rc, fmt.Errorf("-tiers: %w", err)
		}
		if rc.Placement != "hash" && rc.Placement != "range" {
			return rc, fmt.Errorf("unknown -placement %q (hash or range)", rc.Placement)
		}
		if *split != "" && rc.Placement != "range" {
			return rc, errors.New("-split requires -placement range")
		}
		rc.SplitKeys = prism.ParseSplitKeys(*split)
		return rc, nil
	}
}
