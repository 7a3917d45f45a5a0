package main

import (
	prism "repro"
)

// clients is the closed-loop client count of every workload: one
// goroutine per core of the two-core sandbox, fixed so that results from
// different machines run the same load.
const clients = 2

const mib = 1 << 20

// workload is one load shape. Every field is fixed: a run varies only
// by -seed and -seconds.
type workload struct {
	name string
	why  string

	keys int
	mix  mix
	opt  prism.Options

	// wire runs the clients over loopback RESP against an in-process
	// server; depth is the number of commands each keeps in flight.
	wire  bool
	depth int

	// Warm-up, after the load and inside setup_s: sweepWrites overwrites
	// every key once, sweepReads reads every key once, then each client
	// runs warmOps requests of the mix.
	sweepWrites, sweepReads bool
	warmOps                 int
}

// chunkSize is core's default Value Storage chunk; no workload overrides it.
const chunkSize = 512 << 10

func (w *workload) dataBytes() int64 { return int64(w.keys) * valueSize }

// chunks is the number of Value Storage chunks over all devices.
func (w *workload) chunks() int64 { return w.ssdBytes() / chunkSize }

// ssdBytes is the simulated flash capacity over all shards.
func (w *workload) ssdBytes() int64 {
	shards := max(w.opt.Shards, 1)
	return int64(shards) * int64(w.opt.NumSSDs) * w.opt.SSDBytes
}

// The workloads that write keep Value Storage's garbage collector from
// ever starting: devices of roomySSD bytes each, and a free-chunk
// threshold of lateGC. Chunks still come back, when every record in them
// has been overwritten, and on write-churn that settles at about 8x the
// data; the skewed workloads do not settle, so runs much longer than the
// default -seconds would fill the space and bring GC back.
//
// That is a workaround, not a preference. At this commit GC races with a
// reclaimer (or the scan-range rewrite) that has committed a chunk and
// is still publishing its records: GC takes the short chunk as its best
// victim, finds the unpublished records "dead", frees the chunk, and the
// publisher then points HSIT at the freed chunk. With 40 MiB devices
// about one write-churn run in ten lost acknowledged values that way
// ("value kept moving; giving up", before any crash). Until the store is
// fixed, a workload with GC running cannot promise that no request
// fails. The simulated devices are touched lazily, so the size costs
// memory only as it is written.
//
// For the same reason the two workloads that scan switch the SVC's
// eviction-time scan-range rewrite off (DisableScanSort): each rewrite
// takes a whole chunk for a short range and counts on GC to compact
// them, so without GC the devices fill within seconds and Put spins out
// with "PWB reclamation stalled".
const (
	roomySSD = 320 * mib
	lateGC   = 0.05
)

// Live data stays well under SSD capacity and the key count under
// HSITCapacity everywhere: a full Value Storage makes Put spin through a
// 1,000,000-retry stall loop.
var workloads = []workload{
	{
		name: "write-churn",
		why:  "100% updates: key index upsert, HSIT publish, PWB append, reclaim and Value Storage writes do all the work; SVC and TCQ none",
		keys: 40_000,
		mix:  mix{updatePct: 100},
		opt: prism.Options{
			NumThreads:        clients,
			HSITCapacity:      1 << 16,
			PWBBytesPerThread: 16 * 40 * mib / 100 / clients, // 16% of data
			NumSSDs:           2,
			SSDBytes:          roomySSD,
			GCFreeFraction:    lateGC,
			SVCBytes:          4 * mib,
		},
		sweepWrites: true,
	},
	{
		name: "read-hot",
		why:  "zipfian reads, SVC larger than the data: key index, HSIT load, SVC, epoch and obs are the whole op; SSD, TCQ and PWB idle",
		keys: 40_000,
		mix:  mix{zipfian: true},
		opt: prism.Options{
			NumThreads:   clients,
			HSITCapacity: 1 << 16,
			NumSSDs:      2,
			SSDBytes:     64 * mib,
			SVCBytes:     64 * mib,
		},
		sweepReads: true,
		warmOps:    40_000,
	},
	{
		name: "read-cold",
		why:  "uniform reads, SVC 4% of the data: same API as read-hot but the time is in TCQ combining, SSD reads and Value Storage decode",
		keys: 100_000,
		mix:  mix{},
		opt: prism.Options{
			NumThreads:   clients,
			HSITCapacity: 1 << 17,
			NumSSDs:      2,
			SSDBytes:     128 * mib,
			SVCBytes:     4 * mib,
		},
		warmOps: 20_000,
	},
	{
		name: "mixed-nutanix",
		why:  "the paper's 7.5 mix (57% update, 41% read, 2% scan): writes beside reads and scans on the same SVC, PWB and HSIT",
		keys: 40_000,
		mix:  mix{updatePct: 57, scanPct: 2, zipfian: true, maxScan: 100},
		opt: prism.Options{
			NumThreads:        clients,
			HSITCapacity:      1 << 16,
			PWBBytesPerThread: 16 * 40 * mib / 100 / clients,
			NumSSDs:           2,
			SSDBytes:          roomySSD,
			GCFreeFraction:    lateGC,
			SVCBytes:          8 * mib, // 20% of data
			DisableScanSort:   true,
		},
		warmOps: 40_000,
	},
	{
		name: "repl-mixed",
		why:  "50% update, 45% read, 5% scan on 3 shards x 2 replicas: the only workload where the shard router fans out, stamps, falls back and merges scans",
		keys: 40_000,
		mix:  mix{updatePct: 50, scanPct: 5, zipfian: true, maxScan: 100},
		opt: prism.Options{
			NumThreads:        clients,
			Shards:            3,
			Replicas:          2,
			HSITCapacity:      1 << 16,
			PWBBytesPerThread: 2 * mib,
			NumSSDs:           2,
			SSDBytes:          128 * mib, // per shard, which holds two thirds of the data
			GCFreeFraction:    lateGC,
			SVCBytes:          8 * mib,
			DisableScanSort:   true,
		},
		warmOps: 10_000,
	},
	{
		name:  "wire-pipelined",
		why:   "loopback RESP, 2 connections x 16 in flight, 50% SET / 50% GET: parse, async admission dispatch and reply encode at depth",
		keys:  40_000,
		mix:   mix{updatePct: 50, zipfian: true},
		opt:   wireOptions,
		wire:  true,
		depth: 16,

		warmOps: 40_000,
	},
	{
		name:  "wire-sync",
		why:   "same server and mix, one command in flight per connection: the lone-command submit and drain path and the socket round trip dominate",
		keys:  40_000,
		mix:   mix{updatePct: 50, zipfian: true},
		opt:   wireOptions,
		wire:  true,
		depth: 1,

		warmOps: 20_000,
	},
}

var wireOptions = prism.Options{
	NumThreads:        clients,
	HSITCapacity:      1 << 16,
	PWBBytesPerThread: 16 * 40 * mib / 100 / clients,
	NumSSDs:           2,
	SSDBytes:          roomySSD,
	GCFreeFraction:    lateGC,
	SVCBytes:          16 * mib,
}

func findWorkload(name string) (int, *workload) {
	for i := range workloads {
		if workloads[i].name == name {
			return i, &workloads[i]
		}
	}
	return -1, nil
}
