// Package bench is the evaluation harness: it reproduces every table and
// figure of the paper's §7 against the engines implemented in this
// repository. Each experiment has one entry point returning a printable
// Table plus structured results, so the cmd/prism-bench CLI, the root
// bench_test.go benchmarks, and the tests all drive the same code.
//
// One RunConfig sizes both the engine (NewEngine, PrismOptions) and the
// workload phases (Load, Run). The unit of an experiment is the cell
// (experiments.go): open an engine, load it, run workloads on the one
// store, capture its metrics, close — an experiment is a grid of cells
// over the axis it varies. Every phase is driven by runThreads' one
// client loop, whose window is 1 (a synchronous call per op),
// RunConfig.Batch or RunConfig.Pipeline. A phase of an experiment that
// counts a failed operation panics: a figure over failed operations is
// not a measurement.
//
// Numbers are produced in virtual time by the device simulators;
// EXPERIMENTS.md records how the shapes compare with the paper.
package bench

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/ycsb"
)

// RunConfig sizes an experiment: the engine NewEngine opens and the
// workload phases Load and Run drive against it.
type RunConfig struct {
	Threads   int
	Records   int // loaded keyspace
	Ops       int // operations in the measured phase
	ValueSize int
	Zipfian   float64
	Seed      uint64

	// NumSSDs is the size of the SSD array (default 2) and QueueDepth the
	// per-device IO queue depth (default 64), for the engines that have
	// them.
	NumSSDs    int
	QueueDepth int

	// PrismMut lets experiments override Prism options (ablations,
	// sweeps). Applied after scaling and after TierSpec.
	PrismMut func(*core.Options)

	// Shards routes Prism through that many independent stores behind
	// the hash router, each with the full scaled sizing (default 1;
	// baselines ignore it).
	Shards int

	// Replicas places each key on that many shards of the router ring
	// (default 1 = unreplicated; requires Shards >= Replicas). Only
	// Prism replicates (the baselines ignore it).
	Replicas int

	// Placement selects the Prism router's placement mode ("hash"
	// default, or "range" for boundary-table routing), with SplitKeys as
	// the initial range boundaries (see prism.ParseSplitKeys for the CLI
	// form). Only Prism shards (the baselines ignore it).
	Placement string
	SplitKeys [][]byte

	// TierSpec configures a heterogeneous SSD array with hot/cold
	// tiering (core.ParseTierSpec format). Only Prism tiers (the
	// baselines ignore it).
	TierSpec string

	// Batch, when > 1, groups consecutive same-kind operations into
	// windows of up to Batch and issues them through engine.PutBatch /
	// engine.MultiGet — native single-epoch batches on Prism, plain
	// per-key loops on the baselines. Scans always run individually.
	// Latency is recorded per operation as its window's share.
	Batch int

	// Pipeline, when > 1, models a pipelined client: each thread submits
	// operations through the engine's asynchronous pipeline
	// (engine.AsyncKV) and drains every Pipeline submissions, so up to
	// Pipeline ops are in flight per drain window. Engines without an
	// async pipeline fall back to synchronous calls. Scans drain the
	// window first and run synchronously. Takes precedence over Batch.
	// Latency is recorded per operation as its window's share.
	Pipeline int

	// TimelineBucketNS, when > 0, collects completed-op counts per
	// virtual-time bucket (Figure 17).
	TimelineBucketNS int64

	// SampleNS, when > 0 and the store implements MetricsSource, snapshots
	// every registered metric each SampleNS of virtual time, producing a
	// Figure-17-style timeline for any metric (Result.MetricSamples).
	SampleNS int64

	// Metrics, when non-nil, receives each engine's final obs snapshot
	// just before the experiment closes its store (engines without a
	// registry are skipped). Shared by all experiments in a run.
	Metrics *MetricsCollector
}

func (rc *RunConfig) applyDefaults() {
	if rc.Threads == 0 {
		rc.Threads = 4
	}
	if rc.Records == 0 {
		rc.Records = 10000
	}
	if rc.Ops == 0 {
		rc.Ops = 20000
	}
	if rc.ValueSize == 0 {
		rc.ValueSize = 1024
	}
	if rc.Zipfian == 0 {
		rc.Zipfian = 0.99
	}
	if rc.Seed == 0 {
		rc.Seed = 42
	}
	if rc.NumSSDs == 0 {
		rc.NumSSDs = 2
	}
	if rc.QueueDepth == 0 {
		rc.QueueDepth = 64
	}
}

func (rc *RunConfig) dataset() int64 { return int64(rc.Records) * int64(rc.ValueSize) }

// Result is one (engine, workload) measurement.
type Result struct {
	Engine    string
	Workload  ycsb.Workload
	Ops       int64
	VirtualNS int64
	Lat       histogram.Summary
	Timeline  []TimelinePoint
	Errors    int64

	// MetricSamples is the per-interval metrics timeline (RunConfig.SampleNS).
	MetricSamples []MetricSample
}

// TimelinePoint is one Figure 17 sample.
type TimelinePoint struct {
	NS  int64
	Ops int64
}

// KOpsPerSec returns throughput in thousands of operations per virtual
// second.
func (r Result) KOpsPerSec() float64 { return kops(r.Ops, r.VirtualNS) }

// kops is ops in ns of virtual time as thousands of operations per
// virtual second (0 over an empty interval).
func kops(ops, ns int64) float64 {
	if ns <= 0 {
		return 0
	}
	return float64(ops) / (float64(ns) / 1e9) / 1e3
}

// mustSucceed panics if the phase counted a failed operation (a miss is
// not one): its throughput and latency would describe the failure path.
func (r Result) mustSucceed() Result {
	if r.Errors != 0 {
		panic(fmt.Sprintf("bench: %s %s: %d of %d operations failed", r.Engine, wname(r.Workload), r.Errors, r.Ops))
	}
	return r
}

// phase returns workload w's generator configuration and operation
// count under rc: rc.Ops over the rc.Records loaded keys, or, for the
// load itself, rc.Records inserts of the keys 1..Records, which the
// clients' shared counter hands out.
func phase(w ycsb.Workload, rc RunConfig) (ycsb.Config, int) {
	cfg := ycsb.Config{
		Workload:  w,
		Records:   uint64(rc.Records),
		Zipfian:   rc.Zipfian,
		ValueSize: rc.ValueSize,
	}
	if w == ycsb.Load {
		cfg.Records, cfg.InsertStart = 0, 1
		return cfg, rc.Records
	}
	return cfg, rc.Ops
}

// Load populates store with rc.Records keys (the YCSB LOAD phase) in
// random order, as §7.1 does, and returns the load-phase result.
func Load(store engine.Store, name string, rc RunConfig) Result {
	return Run(store, name, ycsb.Load, rc)
}

// Run executes one workload phase on store: ycsb.Load is the load
// itself, every other workload runs over an already-loaded store.
func Run(store engine.Store, name string, w ycsb.Workload, rc RunConfig) Result {
	rc.applyDefaults()
	cfg, totalOps := phase(w, rc)
	return runThreads(store, name, rc, cfg, totalOps)
}

// runThreads is the client driver: rc.Threads closed-loop clients, each
// with its own generator, split totalOps between them.
func runThreads(store engine.Store, name string, rc RunConfig, cfg ycsb.Config, totalOps int) Result {
	shared := ycsb.NewShared(cfg)
	threads := rc.Threads
	if threads > store.NumThreads() {
		threads = store.NumThreads()
	}
	perThread := totalOps / threads
	if perThread == 0 {
		perThread = 1
	}

	type threadOut struct {
		hist    *histogram.H
		startNS int64
		endNS   int64
		errs    int64
		times   []int64 // completion timestamps (timeline)
	}
	outs := make([]threadOut, threads)
	// Metrics are sampled by thread 0 at the round barrier: virtual time
	// only advances while workload threads run, so a wall-clock ticker
	// would observe nothing — the sampler rides the clock frontier instead.
	var sampler *obs.Sampler
	if rc.SampleNS > 0 {
		if src, ok := store.(MetricsSource); ok {
			sampler = obs.NewSampler(src.Metrics, rc.SampleNS)
		}
	}
	// Closed-loop benchmark threads share wall-clock time; keep their
	// virtual clocks loosely synchronized with a round barrier so that
	// one thread's backlog is never misread as queueing delay by the
	// others' shared-resource models.
	bar := newRoundBarrier(threads)
	const roundOps = 32
	var wg sync.WaitGroup
	for ti := 0; ti < threads; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			kv := store.Thread(ti)
			gen := ycsb.NewGenerator(cfg, shared, rc.Seed+uint64(ti)*7919)
			h := histogram.New()
			clk := kv.Clock()
			start := clk.Now()
			var errs int64
			var times []int64
			// record books n operations that took elapsed between them —
			// each its even share, so Result.Ops and the latency counts stay
			// per-op — and err, unless it is a miss, as one failure.
			record := func(n int, elapsed int64, err error) {
				if err != nil && !errors.Is(err, engine.ErrNotFound) {
					errs++
				}
				for j := 0; j < n; j++ {
					h.Record(elapsed / int64(n))
					if rc.TimelineBucketNS > 0 {
						times = append(times, clk.Now())
					}
				}
			}
			// The window is what the client keeps outstanding before it
			// waits: one synchronous call, a same-kind run of up to Batch
			// operations issued as one PutBatch/MultiGet, or up to Pipeline
			// async submissions (the store clones keys and values at
			// submission, so the generator's reused buffers are safe).
			window := 1
			if rc.Batch > 1 {
				window = rc.Batch
			}
			var async engine.AsyncKV
			if a, ok := kv.(engine.AsyncKV); ok && rc.Pipeline > 1 {
				async, window = a, rc.Pipeline
			}
			var inflight []engine.Completion
			var pairs []engine.Pair
			var keys [][]byte
			// Per-slot value copies: the generator reuses one value buffer,
			// so a batch window must snapshot each value before the next op
			// overwrites it.
			var valBufs [][]byte
			if async == nil && window > 1 {
				valBufs = make([][]byte, window)
				for i := range valBufs {
					valBufs[i] = make([]byte, rc.ValueSize)
				}
			}
			// drain waits for the window: the batch call is issued here,
			// and Flush folds the async makespan into the thread clock.
			drain := func() {
				n := len(pairs) + len(keys) + len(inflight)
				if n == 0 {
					return
				}
				t0 := clk.Now()
				switch {
				case len(pairs) > 0:
					err := engine.PutBatch(kv, pairs)
					record(n, clk.Now()-t0, err)
				case len(keys) > 0:
					_, err := engine.MultiGet(kv, keys)
					record(n, clk.Now()-t0, err)
				default:
					async.Flush()
					share := (clk.Now() - t0) / int64(n)
					for _, c := range inflight {
						record(1, share, c.Wait())
					}
				}
				pairs, keys, inflight = pairs[:0], keys[:0], inflight[:0]
			}
			for i := 0; i < perThread; i++ {
				if i%roundOps == 0 {
					drain()
					bar.await(clk)
					if ti == 0 {
						sampler.Observe(clk.Now())
					}
				}
				op := gen.Next()
				t0 := clk.Now()
				switch op.Kind {
				case ycsb.OpInsert, ycsb.OpUpdate:
					val := gen.Value(keyID(op.Key))
					switch {
					case async != nil:
						inflight = append(inflight, async.PutAsync(op.Key, val))
					case window > 1:
						if len(keys) > 0 {
							drain()
						}
						v := valBufs[len(pairs)]
						copy(v, val)
						pairs = append(pairs, engine.Pair{Key: op.Key, Value: v})
					default:
						err := kv.Put(op.Key, val)
						record(1, clk.Now()-t0, err)
					}
				case ycsb.OpRead:
					switch {
					case async != nil:
						inflight = append(inflight, async.GetAsync(op.Key))
					case window > 1:
						if len(pairs) > 0 {
							drain()
						}
						keys = append(keys, op.Key)
					default:
						_, err := kv.Get(op.Key)
						record(1, clk.Now()-t0, err)
					}
				case ycsb.OpScan:
					// A scan has no batch or async form and must observe
					// the window's writes: it drains the window and runs alone.
					drain()
					t0 = clk.Now()
					err := kv.Scan(op.Key, op.ScanLen, func(k, v []byte) bool { return true })
					record(1, clk.Now()-t0, err)
				}
				if len(pairs)+len(keys)+len(inflight) >= window {
					drain()
				}
			}
			drain()
			outs[ti] = threadOut{hist: h, startNS: start, endNS: clk.Now(), errs: errs, times: times}
		}(ti)
	}
	wg.Wait()

	res := Result{Engine: name, Workload: cfg.Workload}
	all := histogram.New()
	for _, o := range outs {
		all.Merge(o.hist)
		if d := o.endNS - o.startNS; d > res.VirtualNS {
			res.VirtualNS = d
		}
		res.Errors += o.errs
		res.Ops += o.hist.Count()
	}
	res.Lat = all.Summarize()
	if sampler != nil {
		// One final sample at the phase's end so the last interval is
		// never silently truncated.
		var end int64
		for _, o := range outs {
			if o.endNS > end {
				end = o.endNS
			}
		}
		sampler.Observe(end)
		res.MetricSamples = flattenSamples(sampler.Samples())
	}
	if rc.TimelineBucketNS > 0 {
		var ts []int64
		for _, o := range outs {
			ts = append(ts, o.times...)
		}
		sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
		if len(ts) > 0 {
			end := ts[len(ts)-1]
			nb := end/rc.TimelineBucketNS + 1
			counts := make([]int64, nb)
			for _, t := range ts {
				counts[t/rc.TimelineBucketNS]++
			}
			for b, c := range counts {
				res.Timeline = append(res.Timeline, TimelinePoint{NS: int64(b) * rc.TimelineBucketNS, Ops: c})
			}
		}
	}
	return res
}

// Table is a printable experiment output (a paper table or the series
// behind a figure).
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// roundBarrier synchronizes benchmark threads every round: all arrive,
// all leave with their clocks advanced to the round's maximum.
//
// The release value is bound to the generation at its release instant:
// a woken sleeper must not observe a maximum already polluted by
// next-generation arrivals, or each generation would compound every
// thread's op time into the clock frontier.
type roundBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	gen     uint64
	curMax  int64 // max arrival clock of the in-progress generation
	relMax  int64 // release value of the last completed generation
}

func newRoundBarrier(n int) *roundBarrier {
	b := &roundBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *roundBarrier) await(clk *sim.Clock) {
	if b.n <= 1 {
		return
	}
	b.mu.Lock()
	if clk.Now() > b.curMax {
		b.curMax = clk.Now()
	}
	b.waiting++
	if b.waiting == b.n {
		b.relMax = b.curMax
		b.curMax = 0
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		gen := b.gen
		for gen == b.gen {
			b.cond.Wait()
		}
		// Generation g+1 cannot complete before every generation-g
		// sleeper has woken and re-arrived, so relMax is still ours.
	}
	clk.AdvanceTo(b.relMax)
	b.mu.Unlock()
}

// CSV renders the table as RFC-4180-ish CSV (for plotting scripts).
func (t Table) CSV() string {
	var b strings.Builder
	esc := func(c string) string {
		if strings.ContainsAny(c, ",\"\n") {
			return "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		return c
	}
	write := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	write(t.Header)
	for _, r := range t.Rows {
		write(r)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// keyID parses the numeric suffix of a YCSB key ("user%012d").
func keyID(key []byte) uint64 {
	var n uint64
	for _, c := range key {
		if c >= '0' && c <= '9' {
			n = n*10 + uint64(c-'0')
		}
	}
	return n
}
