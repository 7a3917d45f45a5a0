// Package core implements the Prism key-value store engine: the five
// components of §4 (Persistent Key Index, PWB, Value Storage, SVC, HSIT)
// wired together with the cross-media concurrency control of §5.4 and the
// crash-consistency/recovery protocol of §5.5.
//
// Storage layout:
//
//	NVM:  [ HSIT entries | per-thread PWB rings | (key index, modeled) ]
//	SSDs: [ Value Storage chunks ] x NumSSDs, one Value Storage per SSD
//	DRAM: [ Scan-aware Value Cache | validity bitmaps | volatile state ]
//
// Every application thread obtains a Thread handle carrying its virtual
// clock, epoch participant, and private PWB. Background work (PWB
// reclamation, Value Storage GC, demotion, the SVC's scan-range rewrite)
// runs as passes on Threads of its own, with no ring and no admission
// loop, contending with the foreground for device bandwidth in virtual
// time exactly as the paper's background threads contend for real
// devices.
package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/hsit"
	"repro/internal/keyindex"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/pwb"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/svc"
	"repro/internal/tcq"
	"repro/internal/valuestore"
)

// Errors returned by store operations. ErrValueTooLarge is an input
// rejection: the operation's own answer, not a fault of the store.
var (
	ErrNotFound      = errors.New("prism: key not found")
	ErrClosed        = errors.New("prism: store closed")
	ErrValueTooLarge = errors.New("prism: value too large")
)

// Options configures a Store. The zero value is completed by defaults
// sized for tests; benchmarks override explicitly.
type Options struct {
	// NumThreads is the number of application Thread handles (each gets
	// a private PWB, §4.3). Default 4.
	NumThreads int
	// PWBBytesPerThread sizes each PWB ring. Default 1 MiB.
	PWBBytesPerThread int
	// HSITCapacity is the maximum number of live keys. Default 1 << 16.
	HSITCapacity int
	// NumSSDs is the number of simulated flash SSDs, one Value Storage
	// each (§5.1). Default 2.
	NumSSDs int
	// SSDBytes is the capacity of each SSD. Default 64 MiB.
	SSDBytes int64
	// ChunkSize is the Value Storage chunk size. Default 512 KiB.
	ChunkSize int
	// SVCBytes bounds the DRAM value cache. Default 4 MiB.
	SVCBytes int64
	// QueueDepth is the IO coalescing limit (§5.3), and also caps how
	// many async submissions one admission window coalesces. Default 64.
	QueueDepth int
	// ReclaimWatermark is the PWB utilization that triggers background
	// reclamation. Zero selects the adaptive controller, which starts at
	// 0.5 (§4.3) and closes the loop from put stalls and reclaim-pass
	// outcomes: a stall lowers the trigger (reclaim starts earlier, so
	// the ring has headroom when the next burst arrives) and a stall-free
	// pass raises it back. A non-zero value pins the fixed watermark.
	ReclaimWatermark float64
	// GCFreeFraction triggers Value Storage GC when the free-chunk
	// fraction drops below it. Default 0.25.
	GCFreeFraction float64

	// SSD is every device's performance envelope (zero = paper defaults).
	SSD ssd.Config

	// SSDConfigs, when non-empty, gives each device its own envelope —
	// the heterogeneous array of §2.1 — and overrides NumSSDs with its
	// length. A config's zero Size falls back to SSDBytes and its Name is
	// always rewritten to ssdN.
	SSDConfigs []ssd.Config

	// EnableTiering turns on hot/cold value placement: the PWB reclaimer
	// steers hot values (written at least twice, or read, recently) to
	// the fastest device and cold values to the highest-capacity one, and
	// a background pass demotes values that cool off. It is a no-op when
	// tier selection cannot tell two devices apart (a single SSD).
	EnableTiering bool

	// Ablation switches (§7.6 "impact of individual techniques").
	DisableSVC       bool // no DRAM value cache
	DisableCombining bool // use timeout-based async IO (TA) instead of TC
	SyncVSWrites     bool // bypass PWB: write values synchronously to VS
	DisableScanSort  bool // no eviction-time scan-range rewrite

	// Shards is consumed by the sharding router above this package
	// (internal/shard, surfaced as prism.Open): values > 1 open that many
	// independent core Stores behind one routed front end, each with the
	// full per-shard resources described by the other fields. core.Open
	// itself runs exactly one store and rejects Shards > 1 loudly rather
	// than silently ignoring the request.
	Shards int

	// Replicas is likewise consumed by the sharding router: values > 1
	// place each key on that many shards (primary + N-1 successors on
	// the ring) with timestamped last-writer-wins writes and background
	// anti-entropy repair. core.Open rejects Replicas > 1; a lone core
	// store has nothing to replicate onto.
	Replicas int

	// Placement selects the router's key-placement policy and is
	// consumed, like Shards, by the sharding router: "" or "hash" (the
	// default) routes every key by FNV-1a + jump consistent hash;
	// "range" routes through a boundary table of split keys so scans
	// touch only owning shards and key ranges can migrate online
	// between shards (see internal/shard/migrate.go). core.Open rejects
	// "range" loudly — a single core store has nothing to place.
	Placement string

	// SplitKeys seeds the range-placement boundary table: split points
	// dividing the keyspace into len(SplitKeys)+1 ranges assigned
	// round-robin to shards. Ignored unless Placement is "range". An
	// empty list starts with a single hash-owned range covering the
	// whole keyspace (routing is then hash-identical) which
	// RebalanceRanges converts online once keys exist to sample.
	SplitKeys [][]byte

	// DisableAutoRepair stops the router from starting its background
	// anti-entropy worker; RecoverShard then leaves the shard in the
	// repairing state until the application drives Repair/RepairShard
	// itself (what the fault-injection tests do to count passes).
	DisableAutoRepair bool

	Seed uint64
}

func (o *Options) applyDefaults() {
	if o.NumThreads == 0 {
		o.NumThreads = 4
	}
	if o.PWBBytesPerThread == 0 {
		o.PWBBytesPerThread = 1 << 20
	}
	if o.HSITCapacity == 0 {
		o.HSITCapacity = 1 << 16
	}
	if len(o.SSDConfigs) > 0 {
		o.NumSSDs = len(o.SSDConfigs)
	}
	if o.NumSSDs == 0 {
		o.NumSSDs = 2
	}
	if o.SSDBytes == 0 {
		o.SSDBytes = 64 << 20
	}
	if o.ChunkSize == 0 {
		o.ChunkSize = 512 << 10
	}
	if o.SVCBytes == 0 {
		o.SVCBytes = 4 << 20
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	// ReclaimWatermark deliberately has no default: zero means adaptive.
	if o.GCFreeFraction == 0 {
		o.GCFreeFraction = 0.25
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Store is a Prism key-value store instance.
type Store struct {
	opt Options

	nvmDev  *nvm.Device
	ssds    []*ssd.Device
	index   *keyindex.Index
	table   *hsit.Table
	pwbs    []*pwb.Buffer
	pwbBase int
	vsm     *valuestore.Manager
	queues  []*tcq.Queue          // thread combining (§5.3), or
	tas     []*tcq.TimeoutBatcher // the TA ablation baseline
	readers []vsReader            // whichever of the two Open built, per device
	cache   *svc.Cache
	em      *epoch.Manager

	threads []*Thread

	// mnt is a dedicated maintenance thread (own clock + epoch
	// participant, no PWB, no RNG) used by the router's range-migration
	// purge (DropRange) so physical deletes never borrow a router-owned
	// thread handle; mntMu serializes its users. It must never append —
	// a nil buf fails loudly if a write path is ever misrouted here.
	mnt   *Thread
	mntMu sync.Mutex

	// Kick channels (kick, passLoop): one per ring for its reclaimer, one
	// per device for its GC.
	reclaimChs []chan int64
	gcChs      []chan int64
	reclaimers []reclaimer // per-PWB pass lock and scratch
	stop       chan struct{}
	bg         sync.WaitGroup
	closed     atomic.Bool

	lastRewrite int64 // the rewrite thread's: paces scan-range rewrites

	// pop is the popularity tracker behind SVC admission and tier
	// steering (admit.go).
	pop *popularity

	// Tiering + adaptive admission (tiering.go). tierFast/tierCap are the
	// device indices chosen at Open; equal when the array is
	// indistinguishable (tiering then disables itself). watermark holds
	// the effective reclaim trigger as float64 bits; adaptiveWM says
	// whether the controller may move it.
	tierFast, tierCap int
	watermark         atomic.Uint64
	adaptiveWM        bool

	stats statsCounters

	// repl is the per-key newest-stamp map the stamped writes keep (empty
	// until the first one); see repl.go.
	repl *replState

	// Observability: the registry and the owned hot-path histograms of op
	// latency in virtual ns.
	reg                        *obs.Registry
	latPut, latGet, latScan    *obs.Histogram
	latPutBatch, latMultiGet   *obs.Histogram
	batchSizePut, batchSizeGet *obs.Histogram
	asyncWindow, asyncLat      *obs.Histogram
	putStallNS                 *obs.Histogram

	// batchStepHook, when non-nil, runs after each batch entry is applied
	// (crash-injection point for the mid-batch prefix-consistency tests).
	batchStepHook func(i int)
}

// vsReader is one device's read batching scheme: it takes a caller's set
// of read requests at a virtual time and returns the set's latest
// completion time.
type vsReader interface {
	Read(at int64, reqs ...ssd.Request) int64
}

type statsCounters struct {
	puts, gets, deletes, scans    atomic.Int64
	batchPuts, batchGets          atomic.Int64
	svcHits, pwbHits, vsReads     atomic.Int64
	vsRecords                     atomic.Int64 // records in the vsReads IOs
	userBytesWritten              atomic.Int64
	reclaims, pwbLiveMigrated     atomic.Int64
	pwbScanned, reclaimNS         atomic.Int64
	scanRewrites, recoveredValues atomic.Int64
	putStalls, putsStalled        atomic.Int64
	reclaimPublishLost            atomic.Int64
	scanTornRecords               atomic.Int64

	// SVC admission by source other than a point read's SSD read: records
	// the reclaimer handed over, hand-offs it skipped because the cache
	// manager was behind, and first-touch scan rows left out.
	reclaimAdmits, reclaimAdmitSkips atomic.Int64
	scanDeferred                     atomic.Int64

	asyncPuts, asyncGets atomic.Int64
	asyncDeletes         atomic.Int64

	// Tiering: bytes the reclaimer steered to the intended tier vs. spilled
	// to a fallback device, by heat class, and the demotion pass totals.
	tierHotSteered, tierColdSteered   atomic.Int64
	tierHotFallback, tierColdFallback atomic.Int64
	tierDemotions, tierDemotedBytes   atomic.Int64
}

// Thread is one application thread's handle: it owns a virtual clock, an
// epoch participant, and a private PWB. A background pass runs on a
// Thread too, one with no ring and no admission loop (newThread). A
// Thread must not be used concurrently; different Threads may run in
// parallel.
type Thread struct {
	s    *Store
	id   int
	Clk  *sim.Clock
	part *epoch.Participant
	buf  *pwb.Buffer
	rng  *sim.RNG

	// async is the thread's admission loop for PutAsync/GetAsync/
	// DeleteAsync (nil on shadow executors and pass threads, which never
	// submit).
	async *asyncThread

	// stage is the clock the steps of an overlap frame run on (async.go):
	// Clk points at it while a step is in flight.
	stage sim.Clock

	// Batch-read scratch of Scan, MultiGet and the async pass, reused
	// across calls (a Thread is single-owner, so per-thread reuse is
	// race-free and keeps batch reads allocation-flat): one item per key,
	// those left for the merged Value Storage read, their records sorted
	// by (device, offset), and one read request per extent.
	items   []scanItem
	pending []*scanItem
	locs    []located
	reqs    []ssd.Request
}

// Open creates a Store over fresh simulated devices.
func Open(opt Options) (*Store, error) {
	opt.applyDefaults()
	if opt.Shards > 1 {
		return nil, errors.New("prism: Shards > 1 requires the sharding router (use prism.Open, not core.Open)")
	}
	if opt.Replicas > 1 {
		return nil, errors.New("prism: Replicas > 1 requires the sharding router (use prism.Open, not core.Open)")
	}
	switch opt.Placement {
	case "", "hash":
	case "range":
		return nil, errors.New("prism: Placement \"range\" requires the sharding router (use prism.Open, not core.Open)")
	default:
		return nil, fmt.Errorf("prism: unknown Placement %q (want \"hash\" or \"range\")", opt.Placement)
	}
	if opt.NumSSDs > 64 {
		return nil, errors.New("prism: at most 64 SSDs (global offset encoding)")
	}
	if opt.NumThreads < 1 || opt.NumSSDs < 1 {
		return nil, errors.New("prism: need at least one thread and one SSD")
	}
	// PWB rings require 16-byte alignment; chunk sizes must hold at
	// least one max-size record.
	opt.PWBBytesPerThread = opt.PWBBytesPerThread / 16 * 16
	if opt.PWBBytesPerThread < 4096 {
		return nil, errors.New("prism: PWBBytesPerThread too small (< 4 KiB)")
	}
	if int64(opt.ChunkSize) > opt.SSDBytes {
		return nil, errors.New("prism: chunk size exceeds SSD capacity")
	}
	for _, c := range opt.SSDConfigs {
		if c.Size != 0 && int64(opt.ChunkSize) > c.Size {
			return nil, errors.New("prism: chunk size exceeds SSD capacity")
		}
	}
	hsitBytes := opt.HSITCapacity * hsit.EntrySize
	pwbBase := (hsitBytes + 63) / 64 * 64
	nvmSize := pwbBase + opt.NumThreads*opt.PWBBytesPerThread + 4096
	s := &Store{
		opt:        opt,
		nvmDev:     nvm.New(nvm.Config{Size: nvmSize}),
		em:         epoch.NewManager(),
		reclaimChs: newKicks(opt.NumThreads),
		gcChs:      newKicks(opt.NumSSDs),
		reclaimers: make([]reclaimer, opt.NumThreads),
		pwbBase:    pwbBase,
		repl:       newReplState(),
	}
	wm := opt.ReclaimWatermark
	if wm == 0 {
		s.adaptiveWM = true
		wm = wmStart
	}
	s.watermark.Store(math.Float64bits(wm))
	s.index = keyindex.New(s.nvmDev)
	s.table = hsit.New(s.nvmDev, 0, opt.HSITCapacity, s.em)
	for i := 0; i < opt.NumThreads; i++ {
		base := pwbBase + i*opt.PWBBytesPerThread
		s.pwbs = append(s.pwbs, pwb.NewBuffer(s.nvmDev, base, opt.PWBBytesPerThread))
		s.reclaimers[i].buf = s.pwbs[i]
	}
	for i := 0; i < opt.NumSSDs; i++ {
		scfg := opt.SSD
		if len(opt.SSDConfigs) > 0 {
			scfg = opt.SSDConfigs[i]
		}
		if scfg.Size == 0 {
			scfg.Size = opt.SSDBytes
		}
		scfg.Name = fmt.Sprintf("ssd%d", i)
		dev := ssd.New(scfg)
		s.ssds = append(s.ssds, dev)
		if opt.DisableCombining {
			const taTimeoutNS = 100_000 // the TA baseline's batching timeout, 100 us
			ta := tcq.NewTimeoutBatcher(dev, opt.QueueDepth, taTimeoutNS)
			s.tas, s.readers = append(s.tas, ta), append(s.readers, ta)
		} else {
			q := tcq.New(dev, opt.QueueDepth)
			s.queues, s.readers = append(s.queues, q), append(s.readers, q)
		}
	}
	s.vsm = valuestore.NewManager(s.ssds, opt.ChunkSize, s.em)
	s.tierFast, s.tierCap = pickTiers(s.ssds)
	s.cache = s.newCache()
	s.pop = newPopularity(opt.HSITCapacity, s.tiered(), s.recentLimit)
	rng := sim.NewRNG(opt.Seed)
	for i := 0; i < opt.NumThreads; i++ {
		s.threads = append(s.threads, s.newThread(i, rng.Split(), s.pwbs[i], s.em.Register()))
	}
	// Shadow executors are split from the master RNG after every public
	// thread, so existing seeds produce the same public-thread streams.
	for i := 0; i < opt.NumThreads; i++ {
		t := s.threads[i]
		a := &asyncThread{t: t, lt: s.newThread(i, rng.Split(), s.pwbs[i], s.em.Register())}
		a.cond = sync.NewCond(&a.mu)
		t.async = a
	}
	// The maintenance thread registers after all public + shadow
	// participants and takes no RNG split, so existing seeds keep their
	// streams bit-identical.
	s.mnt = s.newThread(0, nil, nil, s.em.Register())
	s.reg = obs.NewRegistry()
	s.registerMetrics()
	s.startBackground()
	return s, nil
}

// newThread builds a Thread of s, its clock at 0: the one constructor of
// every thread — public, shadow, maintenance and pass. id is the ring it
// reclaims or appends to, or the device a GC pass thread collects; buf is
// that ring for a thread that appends, nil for one that never does (a
// misrouted append then fails loudly). rng is its stream for device
// picks, nil for one that never picks. part is its epoch participant, nil
// for a pass that never enters an epoch: the manager never forgets a
// participant, and pass threads are built anew at every Recover.
func (s *Store) newThread(id int, rng *sim.RNG, buf *pwb.Buffer, part *epoch.Participant) *Thread {
	return &Thread{s: s, id: id, Clk: sim.NewClock(0), part: part, buf: buf, rng: rng}
}

// newCache builds the SVC with the store's hooks, for Open and for Recover
// (the cache is DRAM and dies with a crash); nil under DisableSVC. The
// scan-range rewrite runs on a pass thread of the cache's own, on the
// cache manager's goroutine.
func (s *Store) newCache() *svc.Cache {
	if s.opt.DisableSVC {
		return nil
	}
	cfg := svc.Config{
		CapacityBytes: s.opt.SVCBytes,
		Unpublish: func(idx, handle uint64) bool {
			return s.table.CasSVC(nil, idx, handle, 0)
		},
	}
	if !s.opt.DisableScanSort {
		t := s.newThread(0, sim.NewRNG(s.opt.Seed^0x5ca9), nil, nil)
		cfg.OnScanEvict = func(chain svc.EvictedChain) { s.onScanEvict(t, chain) }
	}
	return svc.New(cfg)
}

// startBackground starts one passLoop per ring (its reclaimer: §5.2, off
// the ring's application thread, so reclamation scales with the writers)
// and one per device (its GC), each on a pass thread of its own, and the
// maintenance loop, under a fresh stop channel; Close and Crash close it
// and wait on bg.
func (s *Store) startBackground() {
	s.stop = make(chan struct{})
	s.bg.Add(len(s.reclaimChs) + len(s.gcChs) + 1)
	for i, ch := range s.reclaimChs {
		t := s.newThread(i, sim.NewRNG(s.opt.Seed^(0xabcdef+uint64(i)*7919)), nil, nil)
		go s.passLoop(ch, t, s.reclaimBuffer)
	}
	for dev, ch := range s.gcChs {
		go s.passLoop(ch, s.newThread(dev, nil, nil, nil), s.gcPass)
	}
	go s.maintenanceLoop()
}

// Thread returns application thread handle i (0 <= i < NumThreads).
func (s *Store) Thread(i int) *Thread { return s.threads[i] }

// NumThreads returns the number of thread handles.
func (s *Store) NumThreads() int { return len(s.threads) }

// Epochs returns the store's epoch manager (tests and harness plumbing).
func (s *Store) Epochs() *epoch.Manager { return s.em }

// NVM returns the simulated NVM device.
func (s *Store) NVM() *nvm.Device { return s.nvmDev }

// SSDs returns the simulated flash devices.
func (s *Store) SSDs() []*ssd.Device { return s.ssds }

// Close stops background work and flushes NVM (clean shutdown).
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return ErrClosed
	}
	// Stop admission loops first (closed is set, so still-queued
	// submissions complete with ErrClosed) while reclamation/GC are
	// still alive to serve any window already in flight; a put asleep on
	// a full ring gives up with ErrClosed.
	s.stopForeground()
	close(s.stop)
	s.bg.Wait()
	if s.cache != nil {
		s.cache.Close()
	}
	s.em.Barrier()
	s.nvmDev.PersistAll()
	return nil
}

// stopForeground, called with closed set, wakes every put that sleeps on
// a full ring (it returns ErrClosed) and joins the admission loops: a
// window in flight completes its handles, then the loop exits.
func (s *Store) stopForeground() {
	for _, b := range s.pwbs {
		b.Interrupt()
	}
	for _, t := range s.threads {
		t.async.stop()
	}
}

// Stats is a point-in-time snapshot of store-level counters.
type Stats struct {
	Puts, Gets, Deletes, Scans int64
	BatchPuts, BatchGets       int64
	AsyncPuts, AsyncGets       int64
	AsyncDeletes               int64
	SVCHits, PWBHits, VSReads  int64
	UserBytesWritten           int64
	Reclaims, PWBLiveMigrated  int64
	PWBRecordsScanned          int64
	ScanRewrites               int64
	ReclaimAdmits              int64
	ReclaimAdmitSkips          int64
	ScanDeferred               int64
	PutStalls, PutsStalled     int64
	ReclaimPublishLost         int64
	ScanTornRecords            int64
	IndexSpaceBytes            int64
	HSITSpaceBytes             int64
	TierHotSteeredBytes        int64
	TierColdSteeredBytes       int64
	TierHotFallbackBytes       int64
	TierColdFallbackBytes      int64
	TierDemotions              int64
	TierDemotedBytes           int64
	VS                         valuestore.Stats
	SVC                        svc.Stats
}

// Add folds b into a: every integer field, the nested VS and SVC ones
// included, is summed. It walks the struct, so a counter added to Stats is
// summed by the router (shard.Store.Stats) without being listed again.
func (a *Stats) Add(b Stats) { addInts(reflect.ValueOf(a).Elem(), reflect.ValueOf(b)) }

func addInts(dst, src reflect.Value) {
	for i := 0; i < dst.NumField(); i++ {
		switch f := dst.Field(i); f.Kind() {
		case reflect.Struct:
			addInts(f, src.Field(i))
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + src.Field(i).Int())
		default:
			panic("core: Stats field of a kind Add does not sum: " + f.Kind().String())
		}
	}
}

// Stats returns current counters.
func (s *Store) Stats() Stats {
	return Stats{
		Puts:                  s.stats.puts.Load(),
		Gets:                  s.stats.gets.Load(),
		BatchPuts:             s.stats.batchPuts.Load(),
		BatchGets:             s.stats.batchGets.Load(),
		AsyncPuts:             s.stats.asyncPuts.Load(),
		AsyncGets:             s.stats.asyncGets.Load(),
		AsyncDeletes:          s.stats.asyncDeletes.Load(),
		Deletes:               s.stats.deletes.Load(),
		Scans:                 s.stats.scans.Load(),
		SVCHits:               s.stats.svcHits.Load(),
		PWBHits:               s.stats.pwbHits.Load(),
		VSReads:               s.stats.vsReads.Load(),
		UserBytesWritten:      s.stats.userBytesWritten.Load(),
		Reclaims:              s.stats.reclaims.Load(),
		PWBLiveMigrated:       s.stats.pwbLiveMigrated.Load(),
		PWBRecordsScanned:     s.stats.pwbScanned.Load(),
		ScanRewrites:          s.stats.scanRewrites.Load(),
		ReclaimAdmits:         s.stats.reclaimAdmits.Load(),
		ReclaimAdmitSkips:     s.stats.reclaimAdmitSkips.Load(),
		ScanDeferred:          s.stats.scanDeferred.Load(),
		PutStalls:             s.stats.putStalls.Load(),
		PutsStalled:           s.stats.putsStalled.Load(),
		ReclaimPublishLost:    s.stats.reclaimPublishLost.Load(),
		ScanTornRecords:       s.stats.scanTornRecords.Load(),
		TierHotSteeredBytes:   s.stats.tierHotSteered.Load(),
		TierColdSteeredBytes:  s.stats.tierColdSteered.Load(),
		TierHotFallbackBytes:  s.stats.tierHotFallback.Load(),
		TierColdFallbackBytes: s.stats.tierColdFallback.Load(),
		TierDemotions:         s.stats.tierDemotions.Load(),
		TierDemotedBytes:      s.stats.tierDemotedBytes.Load(),
		IndexSpaceBytes:       s.index.SpaceBytes(),
		HSITSpaceBytes:        s.table.SpaceBytes(),
		VS:                    s.vsm.Stats(),
		SVC:                   s.svcStats(),
	}
}

// svcStats reads the SVC's counters through one load of the cache
// pointer: Crash drops the cache, so a crashed store reads zero here
// until Recover installs a fresh one.
func (s *Store) svcStats() svc.Stats {
	if c := s.cache; c != nil {
		return c.Stats()
	}
	return svc.Stats{}
}

// Len returns the number of live keys.
func (s *Store) Len() int { return s.index.Len() }
