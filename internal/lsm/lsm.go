// Package lsm implements a leveled LSM-tree key-value engine over the
// simulated devices: memtable + WAL, L0, leveled SSTables with background
// compaction, bloom filters, a block cache, and write stalls.
//
// It exists as the substrate for two of the paper's baselines:
//
//   - RocksDB-NVM (§7.1): WAL and every SSTable on an NVM-speed block
//     device — the paper's reference point for the best an LSM tree can
//     do on fast media.
//   - MatrixKV (§7.1): WAL on NVM, L0 as a "matrix container" of sorted
//     runs resident on NVM, fine-grained *column* compaction from the
//     matrix into L1, and L1+ SSTables striped over the flash SSD array.
//
// Both inherit the LSM pathologies the paper measures: compaction write
// amplification, multi-level read traversal, and write stalls when L0 or
// the immutable-memtable queue backs up.
package lsm

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/epoch"
	"repro/internal/nvm"
	"repro/internal/sim"
	"repro/internal/ssd"
)

const maxLevels = 7

// Config parameterizes an LSM store.
type Config struct {
	Name    string
	Threads int // client handles (default 4)

	MemtableBytes    int64 // rotation threshold (default 1 MiB)
	MaxImmutables    int   // queued immutable memtables before stall (default 2)
	L0CompactTrigger int   // L0 runs triggering compaction (default 4)
	L0StallTrigger   int   // L0 runs stalling writers (default 8)
	LevelBaseBytes   int64 // L1 target size (default 8x memtable)
	LevelMult        int   // per-level growth (default 10)
	TableTargetBytes int64 // output SSTable size (default 2x memtable)
	BlockCacheBytes  int64 // shared block cache (default 1 MiB)

	// MatrixL0 enables the MatrixKV mode: L0 lives in an NVM matrix
	// container with column compaction.
	MatrixL0      bool
	MatrixColumns int   // column granularity (default 16)
	MatrixCap     int64 // NVM budget for the matrix (default 8 MiB)

	WAL         ssd.Config // WAL device performance envelope
	WALBytes    int64      // default 16 MiB
	Data        ssd.Config // per-data-device performance envelope
	NumDataDevs int        // default 1
	DataBytes   int64      // per device (default 64 MiB)
}

func (c *Config) applyDefaults() {
	if c.Threads == 0 {
		c.Threads = 4
	}
	if c.MemtableBytes == 0 {
		c.MemtableBytes = 1 << 20
	}
	if c.MaxImmutables == 0 {
		c.MaxImmutables = 2
	}
	if c.L0CompactTrigger == 0 {
		c.L0CompactTrigger = 4
	}
	if c.L0StallTrigger == 0 {
		c.L0StallTrigger = 8
	}
	if c.LevelBaseBytes == 0 {
		c.LevelBaseBytes = 8 * c.MemtableBytes
	}
	if c.LevelMult == 0 {
		c.LevelMult = 10
	}
	if c.TableTargetBytes == 0 {
		c.TableTargetBytes = 2 * c.MemtableBytes
	}
	if c.BlockCacheBytes == 0 {
		c.BlockCacheBytes = 1 << 20
	}
	if c.MatrixColumns == 0 {
		c.MatrixColumns = 16
	}
	if c.MatrixCap == 0 {
		c.MatrixCap = 8 << 20
	}
	if c.WALBytes == 0 {
		c.WALBytes = 16 << 20
	}
	if c.NumDataDevs == 0 {
		c.NumDataDevs = 1
	}
	if c.DataBytes == 0 {
		c.DataBytes = 64 << 20
	}
}

// NVMBlockConfig returns an ssd.Config modeling NVM used as a block
// store (Figure 1's DCPMM numbers): what RocksDB-NVM's filesystem on
// NVM provides.
func NVMBlockConfig() ssd.Config {
	return ssd.Config{
		ReadLatency:    300,
		WriteLatency:   100,
		ReadBandwidth:  6_800_000_000,
		WriteBandwidth: 1_900_000_000,
	}
}

// Store is the LSM engine.
type Store struct {
	cfg Config

	mu     sync.Mutex
	cond   *sync.Cond
	mem    *memtable
	imm    []*memtable // oldest first
	levels [maxLevels][]*SSTable
	matrix []*l0run // MatrixKV mode; newest first

	walDev *ssd.Device
	walOff int64

	dataDevs []*ssd.Device
	allocs   []*ExtentAlloc
	devRR    atomic.Uint64
	cache    *blockCache
	nvmCost  *nvm.Device // matrix-container cost charging

	em      *epoch.Manager
	handles []*handle

	flushCh chan struct{}
	stop    chan struct{}
	bg      sync.WaitGroup

	flushClk   *sim.Clock
	compactClk *sim.Clock
	writeGroup sim.Resource // serializes the WAL/memtable write group
	flushReq   atomic.Int64 // foreground time of the latest rotation
	stallUntil atomic.Int64

	userBytes   atomic.Int64
	stalls      atomic.Int64
	flushes     atomic.Int64
	compactions atomic.Int64
	closed      atomic.Bool
}

// Open creates an LSM store over fresh simulated devices.
func Open(cfg Config) *Store {
	cfg.applyDefaults()
	wcfg := cfg.WAL
	wcfg.Size = cfg.WALBytes
	wcfg.Name = cfg.Name + "-wal"
	s := &Store{
		cfg:        cfg,
		mem:        newMemtable(),
		walDev:     ssd.New(wcfg),
		cache:      newBlockCache(cfg.BlockCacheBytes),
		em:         epoch.NewManager(),
		flushCh:    make(chan struct{}, 8),
		stop:       make(chan struct{}),
		flushClk:   sim.NewClock(0),
		compactClk: sim.NewClock(0),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.NumDataDevs; i++ {
		dcfg := cfg.Data
		dcfg.Size = cfg.DataBytes
		dcfg.Name = fmt.Sprintf("%s-data%d", cfg.Name, i)
		s.dataDevs = append(s.dataDevs, ssd.New(dcfg))
		s.allocs = append(s.allocs, NewExtentAlloc(cfg.DataBytes))
	}
	if cfg.MatrixL0 {
		s.nvmCost = nvm.New(nvm.Config{Size: 4096})
	}
	for i := 0; i < cfg.Threads; i++ {
		s.handles = append(s.handles, &handle{s: s, clk: sim.NewClock(0), part: s.em.Register()})
	}
	s.bg.Add(1)
	go s.backgroundLoop()
	return s
}

// Thread returns client handle i.
func (s *Store) Thread(i int) engine.KV { return s.handles[i] }

// NumThreads returns the handle count.
func (s *Store) NumThreads() int { return len(s.handles) }

// Close stops background work.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	close(s.stop)
	s.cond.Broadcast()
	s.bg.Wait()
	return nil
}

// WriteAmp returns (flash-device bytes written, user bytes). For
// RocksDB-NVM the "flash" devices are its NVM block devices; the metric
// still measures LSM write amplification.
func (s *Store) WriteAmp() (device, user int64) {
	for _, d := range s.dataDevs {
		device += d.Stats().BytesWritten
	}
	return device, s.userBytes.Load()
}

// Stats summarizes engine activity.
type Stats struct {
	Flushes, Compactions, Stalls int64
	L0Runs                       int
	LevelTables                  []int
}

// Stats returns current counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Flushes:     s.flushes.Load(),
		Compactions: s.compactions.Load(),
		Stalls:      s.stalls.Load(),
	}
	if s.cfg.MatrixL0 {
		st.L0Runs = len(s.matrix)
	} else {
		st.L0Runs = len(s.levels[0])
	}
	for _, lvl := range s.levels {
		st.LevelTables = append(st.LevelTables, len(lvl))
	}
	return st
}

func (s *Store) pickDev() int {
	return int(s.devRR.Add(1)) % len(s.dataDevs)
}

// handle is one client thread.
type handle struct {
	s    *Store
	clk  *sim.Clock
	part *epoch.Participant
}

// Clock returns the handle's virtual clock.
func (h *handle) Clock() *sim.Clock { return h.clk }

// walAppend charges a durable WAL record write.
func (s *Store) walAppend(clk *sim.Clock, n int) {
	rec := int64(n + 16)
	if s.walOff+rec > s.walDev.Size() {
		s.walOff = 0
	}
	comps := s.walDev.Submit(clk.Now(), []ssd.Request{{Op: ssd.OpWrite, Offset: s.walOff, Data: make([]byte, rec)}})
	s.walDev.Ack(comps[0])
	clk.AdvanceTo(comps[0].DoneTime)
	s.walOff += rec
}

// Put inserts or updates key.
func (h *handle) Put(key, value []byte) error { return h.write(key, value, false) }

// Delete writes a tombstone for key. Missing keys return ErrNotFound to
// match the engine contract.
func (h *handle) Delete(key []byte) error {
	if _, err := h.Get(key); err != nil {
		return err
	}
	return h.write(key, nil, true)
}

func (h *handle) write(key, value []byte, tomb bool) error {
	s := h.s
	s.userBytes.Add(int64(len(value)))
	// WAL, memtable insert, and the rotation check form one critical
	// section (the write-group lock), so an insert can never land in a
	// memtable that already rotated out for flushing. The group is a
	// serial resource in virtual time too: concurrent writers queue
	// behind it, which is the LSM write-path scalability ceiling the
	// paper's Figure 16 shows.
	s.mu.Lock()
	_, end := s.writeGroup.Acquire(h.clk.Now(), 1200)
	h.clk.AdvanceTo(end)
	s.walAppend(h.clk, len(key)+len(value))
	s.mem.put(key, value, tomb)
	h.clk.Advance(2000) // WAL record build + skiplist insert + arena copy
	if s.mem.size() >= s.cfg.MemtableBytes {
		s.imm = append(s.imm, s.mem)
		s.mem = newMemtable()
		for {
			cur := s.flushReq.Load()
			if h.clk.Now() <= cur || s.flushReq.CompareAndSwap(cur, h.clk.Now()) {
				break
			}
		}
		select {
		case s.flushCh <- struct{}{}:
		default:
		}
	}
	// Write stall (§7.2: "MatrixKV and RocksDB-NVM still suffer from
	// expensive compaction"): block while the pipeline is backed up.
	for (len(s.imm) > s.cfg.MaxImmutables || s.l0CountLocked() >= s.cfg.L0StallTrigger) && !s.closed.Load() {
		s.stalls.Add(1)
		select {
		case s.flushCh <- struct{}{}:
		default:
		}
		s.cond.Wait()
	}
	s.mu.Unlock()
	h.clk.AdvanceTo(s.stallUntil.Load())
	return nil
}

func (s *Store) l0CountLocked() int {
	if s.cfg.MatrixL0 {
		return len(s.matrix)
	}
	return len(s.levels[0])
}

// snapshot captures the current version under the epoch guard.
type snapshot struct {
	mem    *memtable
	imm    []*memtable
	matrix []*l0run
	levels [maxLevels][]*SSTable
}

func (s *Store) snapshot() snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	sn := snapshot{
		mem:    s.mem,
		imm:    append([]*memtable(nil), s.imm...),
		matrix: append([]*l0run(nil), s.matrix...),
	}
	for i := range s.levels {
		sn.levels[i] = append([]*SSTable(nil), s.levels[i]...)
	}
	return sn
}

// Get returns the newest value for key, traversing memtable ->
// immutables -> L0 -> L1+ (the multi-level read path whose cost §7.2
// attributes LSM read inefficiency to).
func (h *handle) Get(key []byte) ([]byte, error) {
	s := h.s
	h.part.Enter()
	defer h.part.Exit()
	sn := s.snapshot()
	// LSM software stack per lookup: version/memtable probes, key
	// comparisons, seek setup (the CPU inefficiency §3 cites).
	h.clk.Advance(3500)

	if e, ok := sn.mem.get(key); ok {
		return h.result(e)
	}
	for i := len(sn.imm) - 1; i >= 0; i-- {
		if e, ok := sn.imm[i].get(key); ok {
			return h.result(e)
		}
	}
	if s.cfg.MatrixL0 {
		for _, run := range sn.matrix {
			s.nvmCost.ChargeRead(h.clk, 128) // binary-search probes
			if e, ok := run.get(key); ok {
				return h.result(e)
			}
		}
	} else {
		for _, t := range sn.levels[0] {
			if v, tomb, found := t.get(h.clk, s.cache, key); found {
				return h.result(entry{val: v, tomb: tomb})
			}
		}
	}
	for lvl := 1; lvl < maxLevels; lvl++ {
		tables := sn.levels[lvl]
		i := sort.Search(len(tables), func(i int) bool {
			return bytes.Compare(tables[i].maxKey, key) >= 0
		})
		if i == len(tables) {
			continue
		}
		h.clk.Advance(800) // per-level seek
		if v, tomb, found := tables[i].get(h.clk, s.cache, key); found {
			return h.result(entry{val: v, tomb: tomb})
		}
	}
	return nil, engine.ErrNotFound
}

func (h *handle) result(e entry) ([]byte, error) {
	if e.tomb {
		return nil, engine.ErrNotFound
	}
	return append([]byte(nil), e.val...), nil
}

// Scan merges every live source in precedence order (the full-tree
// traversal that makes LSM scans expensive, §7.2).
func (h *handle) Scan(start []byte, count int, fn func(key, value []byte) bool) error {
	s := h.s
	h.part.Enter()
	defer h.part.Exit()
	if count <= 0 {
		count = 1 << 30
	}
	sn := s.snapshot()

	// Gather per-source sorted slices, newest source first.
	limit := count*4 + 16
	var sources [][]entry
	collect := func(scan func(fn func(e entry) bool)) {
		var es []entry
		scan(func(e entry) bool {
			es = append(es, entry{key: append([]byte(nil), e.key...), val: append([]byte(nil), e.val...), tomb: e.tomb})
			return len(es) < limit
		})
		sources = append(sources, es)
	}
	collect(func(fn func(e entry) bool) { sn.mem.scanFrom(start, fn) })
	for i := len(sn.imm) - 1; i >= 0; i-- {
		m := sn.imm[i]
		collect(func(fn func(e entry) bool) { m.scanFrom(start, fn) })
	}
	if s.cfg.MatrixL0 {
		for _, run := range sn.matrix {
			r := run
			s.nvmCost.ChargeRead(h.clk, 256)
			collect(func(fn func(e entry) bool) { r.scanFrom(start, fn) })
		}
	} else {
		for _, t := range sn.levels[0] {
			tt := t
			collect(func(fn func(e entry) bool) { tt.scanFrom(h.clk, s.cache, start, fn) })
		}
	}
	for lvl := 1; lvl < maxLevels; lvl++ {
		var es []entry
		tables := sn.levels[lvl]
		i := sort.Search(len(tables), func(i int) bool {
			return bytes.Compare(tables[i].maxKey, start) >= 0
		})
		for ; i < len(tables) && len(es) < limit; i++ {
			tables[i].scanFrom(h.clk, s.cache, start, func(e entry) bool {
				es = append(es, entry{key: append([]byte(nil), e.key...), val: append([]byte(nil), e.val...), tomb: e.tomb})
				return len(es) < limit
			})
		}
		sources = append(sources, es)
	}

	// Iterator setup and per-entry merge CPU.
	var merged = mergeKeepTombs(sources, false)
	h.clk.Advance(int64(len(sources))*1200 + int64(len(merged))*300)
	for _, e := range merged {
		if count == 0 {
			break
		}
		count--
		if !fn(e.key, e.val) {
			break
		}
	}
	return nil
}
