// Package shard scales Prism horizontally: a shard.Store owns N
// independent core.Store instances — each with its own simulated NVM
// region, SSD set, background threads, and epoch domain — behind a pure
// hash router, the same scale-out move that carries single-instance
// in-memory stores to clustered deployments.
//
// # Placement
//
// A key's shard is a pure function of its bytes: FNV-1a 64 of the key
// fed to Lamping & Veach's jump consistent hash over NumShards buckets.
// Placement never depends on insertion order, store state, or process
// lifetime — the same key lands on the same shard across restarts and
// crash/recovery cycles, which is what makes per-shard recovery sound.
//
// # Threads and clocks
//
// The router exposes the same Thread-handle surface as core: Thread(i)
// must not be used concurrently, distinct handles run in parallel.
// Router thread i exclusively owns core thread i of every shard, so a
// single-key op routes straight to the owning shard's pinned thread —
// one hash plus one method call, zero added locking (per-connection
// shard affinity falls out: a connection whose keys hash to one shard
// keeps its existing pinned fast path). Every routed op runs on its
// caller's goroutine: an op that asks several shards asks them one after
// another, each leg on its shard's own thread clock.
//
// With one shard, router thread i's Clk is core thread i's clock itself,
// so whatever moves it from outside (a benchmark's round barrier, Flush)
// moves the clock the next op runs on. With several, Clk is the makespan
// over the per-shard clocks it has driven: shards model independent
// devices running concurrently, so sequential ops that land on different
// shards overlap in virtual time exactly as N independent stores would.
// That is a known leak — a shard's next op may start before the router's
// present (DESIGN.md §3.5) — kept until the benchmark that prices it is
// re-baselined.
//
// # Batches and scans
//
// PutBatch/MultiGet partition by shard and run the per-shard sub-batches
// in turn, preserving core's one-epoch-enter / one-publish-window
// amortization per shard; results merge back in input order. Scan is one
// loop over placement ranges — a hash-mode store is one hash-owned range
// — and reads each through one plan: a plan of one shard is that shard's
// own scan; a plan of several merges their key-index walks and then reads
// each row once, from one shard that holds it (scan.go). Cross-shard
// PutBatch keeps core's prefix-durability only per shard: a crash can
// leave different shards at different prefixes of their sub-batches.
//
// # Replication
//
// Options.Replicas > 1 places each key on R shards — the jump-hash
// primary plus its R-1 ring successors — with every write carrying a
// store-wide logical timestamp and applied per replica under
// last-writer-wins (see core's timestamp layer, repl.go). Writes fan out
// to every live replica and acknowledge when at least one accepted;
// reads go primary-first and fall back across the set on a miss or a
// crashed shard. A crashed shard is marked down (writes skip it, reads
// route around it) until RecoverShard brings it back through the
// repairing state, where background anti-entropy pull passes re-fetch
// everything it missed — including tombstones, so deletes cannot
// resurrect — before it serves reads again. See replica.go and
// repair.go.
package shard

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// MaxShards bounds Options.Shards; each shard is a full simulated device
// set, so the limit only guards against absurd configurations.
const MaxShards = 256

// seedStride separates per-shard RNG seed streams (golden-ratio step).
const seedStride = 0x9e3779b97f4a7c15

// Store routes the full core.Store surface over NumShards independent
// core stores. Safe for the same concurrent use as core.Store: Thread
// handles are single-owner, store-level methods may run from any
// goroutine.
type Store struct {
	opt     core.Options
	shards  []*core.Store
	threads []*Thread

	// Range placement state (hash mode leaves all of it idle and
	// lock-free; see placement.go / migrate.go). rangeMode is fixed at
	// Open; pl is non-nil exactly when rangeMode, so ops never race a
	// nil→non-nil transition. Range-mode ops hold migMu.RLock for their
	// duration; placement transitions install a fresh immutable
	// *placement under migMu.Lock. migOne serializes placement
	// operations (splits, migrations, rebalances); migHook is the
	// test-only crash point inside MigrateRange.
	rangeMode bool
	pl        atomic.Pointer[placement]
	migMu     sync.RWMutex
	migOne    sync.Mutex
	migHook   func(stage string)

	// Replication state (replicas == 1 leaves all of it idle; see
	// replica.go / repair.go).
	replicas   int
	stamped    bool           // writes carry stamps: replicas > 1 or range mode (see stampBlock)
	stamps     atomic.Uint64  // store-wide logical timestamp source
	state      []atomic.Int32 // per-shard replicaUp/Down/Repairing
	repairCh   chan int       // kicks the anti-entropy worker
	repairStop chan struct{}
	repairWG   sync.WaitGroup
	repairMu   sync.Mutex // serializes repair passes

	reg *obs.Registry
	m   routerMetrics
}

// Thread is one application thread's routed handle. It exclusively owns
// one core.Thread per shard and must not be used concurrently; distinct
// Threads run in parallel.
type Thread struct {
	s  *Store
	id int
	// Clk is the thread's virtual clock. With one shard it is the core
	// thread's own; with several, the makespan — the max over every
	// per-shard clock this handle has driven.
	Clk *sim.Clock
	ths []*core.Thread // core thread id of every shard, exclusively owned

	// Batch fan-out scratch, reused across calls (a Thread is
	// single-owner, so reuse is race-free and keeps fan-out
	// allocation-flat). Entries are truncated, never shrunk.
	subPut  [][]core.KV // per-shard sub-batch for PutBatch
	subKeys [][][]byte  // per-shard key sub-slices for MultiGet
	subVals [][][]byte  // per-shard value results for MultiGet
	subIdx  [][]int     // original input positions per shard
	subTS   [][]uint64  // per-shard stamps for a stamped PutBatch
	touched []int       // shards hit by the current batch
	rset    []int       // shard-set scratch for sync ops (see route)
	cov     []bool      // per-entry coverage scratch for PutBatch
	rem     []int       // MultiGet key positions still to resolve

	// Scan scratch (scan.go), on the same terms; a merge's row reads go
	// through subKeys, subVals, subIdx and touched like a MultiGet's.
	turn  int        // range reads planned over a covering set: rotates its offset
	asked []int      // shards the range read's plan asks
	lists [][][]byte // per shard, the keys its walk returned
	pos   []int      // per shard, how far into its list the merge is
	rows  []core.KV  // the range's rows, in key order
}

// Open creates a Store of opt.Shards independent core stores (default
// 1). Every shard receives the full per-shard resources described by
// opt (threads, PWB rings, SSD set); shard i's RNG seed is derived from
// opt.Seed so runs stay deterministic.
func Open(opt core.Options) (*Store, error) {
	n := opt.Shards
	if n == 0 {
		n = 1
	}
	if n < 0 {
		return nil, errors.New("prism: Shards must be >= 1")
	}
	if n > MaxShards {
		return nil, errors.New("prism: too many shards")
	}
	r := opt.Replicas
	if r == 0 {
		r = 1
	}
	if r < 0 {
		return nil, errors.New("prism: Replicas must be >= 1")
	}
	if r > n {
		return nil, errors.New("prism: Replicas cannot exceed Shards (each replica lives on a distinct shard)")
	}
	rangeMode := false
	switch opt.Placement {
	case "", "hash":
	case "range":
		rangeMode = true
	default:
		return nil, errors.New("prism: unknown Placement (want \"hash\" or \"range\")")
	}
	// Range mode stamps every write (migration enumerates the stamp
	// records to stream a range), just like replication does.
	stamped := r > 1 || rangeMode
	s := &Store{opt: opt, replicas: r, rangeMode: rangeMode, stamped: stamped}
	if rangeMode {
		bt, err := newBoundaryTable(opt.SplitKeys, n)
		if err != nil {
			return nil, err
		}
		s.pl.Store(&placement{epoch: 1, tab: bt})
	}
	for i := 0; i < n; i++ {
		sopt := opt
		sopt.Shards = 0
		sopt.Replicas = 0
		sopt.Placement = ""
		sopt.SplitKeys = nil
		if sopt.Seed == 0 {
			sopt.Seed = 1 // mirror core's default before deriving
		}
		sopt.Seed += uint64(i) * seedStride
		cs, err := core.Open(sopt)
		if err != nil {
			for _, prev := range s.shards {
				prev.Close()
			}
			return nil, err
		}
		s.shards = append(s.shards, cs)
	}
	for i := 0; i < s.shards[0].NumThreads(); i++ {
		th := &Thread{
			s:       s,
			id:      i,
			subPut:  make([][]core.KV, n),
			subKeys: make([][][]byte, n),
			subVals: make([][][]byte, n),
			subIdx:  make([][]int, n),
			subTS:   make([][]uint64, n),
			lists:   make([][][]byte, n),
			pos:     make([]int, n),
		}
		for j := 0; j < n; j++ {
			th.ths = append(th.ths, s.shards[j].Thread(i))
		}
		th.Clk = th.ths[0].Clk
		if n > 1 {
			th.Clk = sim.NewClock(0)
		}
		s.threads = append(s.threads, th)
	}
	s.state = make([]atomic.Int32, n)
	// The per-position read counters are indexed unconditionally on the
	// read path, so the slice must exist even when R=1, where its
	// *obs.Counter elements stay nil (a no-op); registerReplicaMetrics
	// fills them in when replicated.
	s.m.replicaReads = make([]*obs.Counter, r)
	if r > 1 {
		s.repairCh = make(chan int, 4*MaxShards)
		s.repairStop = make(chan struct{})
		if !opt.DisableAutoRepair {
			s.repairWG.Add(1)
			go s.repairWorker()
		}
	}
	s.reg = obs.NewRegistry()
	s.registerMetrics()
	return s, nil
}

// fnv64a is FNV-1a 64 over the key bytes — the stable pre-hash feeding
// jump placement.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// jump is Lamping & Veach's jump consistent hash: a uniform mapping of
// a 64-bit hash onto n buckets where growing n moves only ~1/n of keys.
func jump(key uint64, n int) int {
	var b, j int64 = -1, 0
	for j < int64(n) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// ShardOf returns the shard index owning key. In hash mode it is a
// pure, stable function of the key bytes and the shard count; in range
// mode it consults the current placement snapshot (boundary-table
// lookup, jump hash for hash-owned ranges).
func (s *Store) ShardOf(key []byte) int {
	if p := s.pl.Load(); p != nil {
		return p.shardFor(s, key)
	}
	return s.hashShard(key)
}

// hashShard is key's jump-hash shard: its owner under hash placement, and
// in a hash-owned range.
func (s *Store) hashShard(key []byte) int {
	if len(s.shards) == 1 {
		return 0
	}
	return jump(fnv64a(key), len(s.shards))
}

// NumShards returns the number of shards.
func (s *Store) NumShards() int { return len(s.shards) }

// Shard returns shard i's core store (tests, recovery drills, and
// harness plumbing; application traffic goes through Thread handles).
func (s *Store) Shard(i int) *core.Store { return s.shards[i] }

// Thread returns routed application thread handle i.
func (s *Store) Thread(i int) *Thread { return s.threads[i] }

// NumThreads returns the number of thread handles.
func (s *Store) NumThreads() int { return len(s.threads) }

// Len returns the number of live keys across all shards.
func (s *Store) Len() int {
	n := 0
	for _, cs := range s.shards {
		n += cs.Len()
	}
	return n
}

// Close stops every shard; the first error wins. The anti-entropy
// worker (if any) is joined first so no repair pass straddles shutdown.
func (s *Store) Close() error {
	s.stopRepairWorker()
	var first error
	for _, cs := range s.shards {
		if err := cs.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Crash simulates a power failure across every shard (see core.Crash).
// Crash a single shard's devices — marking it down so the replicated
// paths route around it — with CrashShard.
func (s *Store) Crash() {
	for _, cs := range s.shards {
		cs.Crash()
	}
	for i := range s.state {
		s.setState(i, replicaDown)
	}
}

// Recover rebuilds every shard in parallel — shards are independent
// stores, so recovery parallelism comes for free — and aggregates the
// per-shard reports: counters sum, VirtualNS is the makespan.
func (s *Store) Recover() (core.RecoveryReport, error) {
	reps := make([]core.RecoveryReport, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, cs := range s.shards {
		wg.Add(1)
		go func(i int, cs *core.Store) {
			defer wg.Done()
			reps[i], errs[i] = cs.Recover()
		}(i, cs)
	}
	wg.Wait()
	var rep core.RecoveryReport
	for _, r := range reps {
		rep.LiveKeys += r.LiveKeys
		rep.LostKeys += r.LostKeys
		rep.PWBValuesDrained += r.PWBValuesDrained
		rep.VSValuesRecovered += r.VSValuesRecovered
		if r.VirtualNS > rep.VirtualNS {
			rep.VirtualNS = r.VirtualNS
		}
	}
	if err := errors.Join(errs...); err != nil {
		return rep, err
	}
	for i := range s.state {
		s.setState(i, replicaUp)
	}
	if s.replicas > 1 {
		// A whole-store crash can leave replicas divergent only on
		// writes that were in flight (never acknowledged) at the crash;
		// one synchronous anti-entropy sweep reconciles them before the
		// store reports recovered.
		s.Repair()
	}
	return rep, nil
}

// WriteAmp reports (SSD bytes written, user bytes written) summed over
// every shard's device set.
func (s *Store) WriteAmp() (device, user int64) {
	m := s.Metrics()
	return int64(m.Sum("ssd.bytes_written")), int64(m.Sum("core.user_bytes"))
}

// sync folds shard j's thread clock into the router thread's makespan
// clock after an op has run there; with one shard they are one clock.
func (t *Thread) sync(j int) {
	t.Clk.AdvanceTo(t.ths[j].Clk.Now())
}

// Put routes a single-key write to the key's shard set: the owning
// shard's pinned thread, fanned out with Replicas > 1 to every live
// replica under one logical timestamp (see write and verdict in
// replica.go).
func (t *Thread) Put(key, value []byte) error {
	t.s.m.routedPut.Inc()
	return t.write(key, value, false)
}

// Delete routes a single-key delete like Put; where writes are stamped
// it records a timestamped tombstone (what replicas reconcile against
// and migration streams).
func (t *Thread) Delete(key []byte) error {
	t.s.m.routedDelete.Inc()
	return t.write(key, nil, true)
}

// Get routes a single-key read to the key's shard set, primary-first
// with fallback on miss or crash (see walk in replica.go). Range-mode
// reads hold the placement guard and, during a migration's dual-read
// window, may fall back to the not-yet-purged source set.
func (t *Thread) Get(key []byte) ([]byte, error) {
	s := t.s
	s.m.routedGet.Inc()
	w := walk{s: s, key: key}
	if s.rangeMode {
		s.migMu.RLock()
		defer s.migMu.RUnlock()
		w.mig = s.dualWindow(key)
	}
	return t.read(&w)
}

// PutAsync routes an asynchronous write to the admission loops of the
// key's shard set and returns its completion Handle. Unlike the
// synchronous methods, the async methods are safe to call from any
// goroutine (they touch no router-thread scratch and the per-shard
// pipelines are concurrency-safe); submissions retain per-shard
// submission order, while cross-shard ordering is whatever the caller
// imposes by waiting handles in submit order. The router thread's Clk
// is NOT advanced — async work runs on each shard's own async timeline;
// Flush folds the makespan in.
func (t *Thread) PutAsync(key, value []byte) *core.Handle {
	t.s.m.routedPut.Inc()
	return t.writeAsync(key, value, false)
}

// DeleteAsync routes an asynchronous delete like PutAsync.
func (t *Thread) DeleteAsync(key []byte) *core.Handle {
	t.s.m.routedDelete.Inc()
	return t.writeAsync(key, nil, true)
}

// GetAsync routes an asynchronous read to the admission loops of the
// key's shard set: the walk Get takes, one step per completion (see
// pendingRead). A lone replica outside a dual-read window returns its
// shard's handle itself. See PutAsync for the concurrency and ordering
// contract.
func (t *Thread) GetAsync(key []byte) *core.Handle {
	s := t.s
	s.m.routedGet.Inc()
	var m *migState
	if s.rangeMode {
		s.migMu.RLock()
		defer s.migMu.RUnlock()
		m = s.dualWindow(key)
	}
	if s.replicas == 1 && m == nil {
		return t.ths[s.ShardOf(key)].GetAsync(key)
	}
	r := &pendingRead{t: t, w: walk{s: s, key: append([]byte(nil), key...), mig: m}}
	var ph *core.Handle
	ph, r.resolve = core.NewProxyHandle()
	r.landed = r.land
	r.w.plan()
	r.ask()
	return ph
}

// Flush blocks until every async submission on this handle's per-shard
// threads has completed, then folds each shard's async timeline into
// the router thread's clock: shards pipeline independently, so the
// elapsed virtual time is the slowest shard's. With one shard that clock
// is the core thread's, so the thread's next op starts after the drain.
func (t *Thread) Flush() {
	for _, th := range t.ths {
		th.Flush()
	}
	for _, th := range t.ths {
		t.Clk.AdvanceTo(th.AsyncNow())
	}
}
