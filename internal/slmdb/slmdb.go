// Package slmdb reimplements the SLM-DB baseline (Kaiyrakhmet et al.,
// FAST'19) of §7.4: a single-level key-value store that pairs an NVM
// memtable (no WAL — NVM persistence makes redo logging unnecessary)
// with a global persistent B+tree index on NVM and a single level of
// data files on SSD.
//
// Matching the open-source artifact the paper evaluated:
//
//   - Single-threaded execution only (the paper ran Prism single-threaded
//     for the §7.4 comparison).
//   - Memtable flushes append one sorted data file per flush and update
//     the global index entry by entry; there is no multi-level
//     compaction, only *selective* compaction of files whose live ratio
//     has decayed.
//   - Reads go memtable -> index -> one file read per item; scans walk
//     the index and pay one (page-cached) file read per item — no
//     spatial locality, which is why Prism's SVC wins Workload E.
//   - SLM-DB does not support O_DIRECT, so reads go through an OS page
//     cache model (4 KB pages).
package slmdb

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/keyindex"
	"repro/internal/lsm"
	"repro/internal/nvm"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// Config parameterizes an SLM-DB instance.
type Config struct {
	MemtableBytes  int64 // NVM memtable budget (paper: 64 MB; default 64 KiB)
	SSDBytes       int64 // data device capacity (default 64 MiB)
	SSD            ssd.Config
	PageCacheBytes int64   // OS page cache model (default 4 MiB)
	LiveRatioGC    float64 // selective-compaction threshold (default 0.5)
}

func (c *Config) applyDefaults() {
	if c.MemtableBytes == 0 {
		c.MemtableBytes = 64 << 10
	}
	if c.SSDBytes == 0 {
		c.SSDBytes = 64 << 20
	}
	if c.PageCacheBytes == 0 {
		c.PageCacheBytes = 4 << 20
	}
	if c.LiveRatioGC == 0 {
		c.LiveRatioGC = 0.5
	}
}

const pageSize = 4096

// loc packs a value location: [file:14][off:34][len:16].
func packLoc(file int, off int64, n int) uint64 {
	return uint64(file)<<50 | uint64(off)<<16 | uint64(n)
}

func unpackLoc(v uint64) (file int, off int64, n int) {
	return int(v >> 50), int64(v >> 16 & (1<<34 - 1)), int(v & 0xffff)
}

type dataFile struct {
	id    int
	off   int64 // device extent
	size  int64
	total int
	live  int
}

// Store is a single-threaded SLM-DB instance.
type Store struct {
	cfg Config
	clk *sim.Clock

	memKeys  map[string]int // key -> memEnts slot
	memEnts  []memEntry
	memBytes int64

	index   *keyindex.Index
	nvmCost *nvm.Device

	dev    *ssd.Device
	alloc  *lsm.ExtentAlloc
	files  map[int]*dataFile
	nextID int

	pcacheCap int64
	pcache    map[int64][]byte
	plru      []int64

	userBytes int64
	flushes   int64
	compacts  int64
}

type memEntry struct {
	key  []byte
	val  []byte
	tomb bool
}

// Open creates an SLM-DB store over fresh simulated devices.
func Open(cfg Config) *Store {
	cfg.applyDefaults()
	scfg := cfg.SSD
	scfg.Size = cfg.SSDBytes
	scfg.Name = "slmdb-data"
	return &Store{
		cfg:       cfg,
		clk:       sim.NewClock(0),
		memKeys:   map[string]int{},
		index:     keyindex.New(nvm.New(nvm.Config{Size: 4096})),
		nvmCost:   nvm.New(nvm.Config{Size: 4096}),
		dev:       ssd.New(scfg),
		alloc:     lsm.NewExtentAlloc(cfg.SSDBytes),
		files:     map[int]*dataFile{},
		pcacheCap: cfg.PageCacheBytes,
		pcache:    map[int64][]byte{},
	}
}

// Thread returns the single handle (SLM-DB is single-threaded).
func (s *Store) Thread(i int) engine.KV {
	if i != 0 {
		panic("slmdb: single-threaded store")
	}
	return s
}

// NumThreads returns 1.
func (s *Store) NumThreads() int { return 1 }

// Close is a no-op (no background threads).
func (s *Store) Close() error { return nil }

// Clock returns the store's virtual clock.
func (s *Store) Clock() *sim.Clock { return s.clk }

// WriteAmp returns (device bytes written, user bytes written).
func (s *Store) WriteAmp() (device, user int64) {
	return s.dev.Stats().BytesWritten, s.userBytes
}

// Stats reports flush/compaction counts and live file count.
type Stats struct {
	Flushes, Compactions int64
	Files                int
}

// stats returns engine counters.
func (s *Store) stats() Stats {
	return Stats{Flushes: s.flushes, Compactions: s.compacts, Files: len(s.files)}
}

// Put stores key/value in the NVM memtable (durable immediately — no
// WAL, §7.4) and flushes when the memtable budget is exceeded.
func (s *Store) Put(key, value []byte) error {
	s.userBytes += int64(len(value))
	// NVM memtable write: a persistent skiplist insert persists the new
	// node and several predecessor pointers (multiple line flushes with
	// ordering fences), unlike Prism's single sequential PWB append —
	// exactly the §4.3 contrast.
	s.nvmCost.ChargeWrite(s.clk, len(key)+len(value)+32)
	s.clk.Advance(2200) // node + pointer flushes, fences
	s.memPut(key, value, false)
	if s.memBytes >= s.cfg.MemtableBytes {
		if err := s.flush(); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes key (tombstone through the same flush path).
func (s *Store) Delete(key []byte) error {
	if _, err := s.Get(key); err != nil {
		return err
	}
	s.nvmCost.ChargeWrite(s.clk, len(key)+32)
	s.memPut(key, nil, true)
	return nil
}

func (s *Store) memPut(key, val []byte, tomb bool) {
	if i, ok := s.memKeys[string(key)]; ok {
		s.memBytes += int64(len(val)) - int64(len(s.memEnts[i].val))
		s.memEnts[i].val = append([]byte(nil), val...)
		s.memEnts[i].tomb = tomb
		return
	}
	s.memKeys[string(key)] = len(s.memEnts)
	s.memEnts = append(s.memEnts, memEntry{
		key:  append([]byte(nil), key...),
		val:  append([]byte(nil), val...),
		tomb: tomb,
	})
	s.memBytes += int64(len(key) + len(val) + 48)
}

// Get resolves memtable first, then the global index and one file read.
func (s *Store) Get(key []byte) ([]byte, error) {
	s.nvmCost.ChargeRead(s.clk, 64)
	if i, ok := s.memKeys[string(key)]; ok {
		e := s.memEnts[i]
		if e.tomb {
			return nil, engine.ErrNotFound
		}
		return append([]byte(nil), e.val...), nil
	}
	loc, ok := s.index.Lookup(s.clk, key)
	if !ok {
		return nil, engine.ErrNotFound
	}
	_, off, n := unpackLoc(loc)
	return s.readExtent(off, n), nil
}

// Scan walks the index range, overlaying memtable entries, paying one
// (page-cached) data read per index hit.
func (s *Store) Scan(start []byte, count int, fn func(key, value []byte) bool) error {
	if count <= 0 {
		count = 1 << 30
	}
	// Collect index range.
	type item struct {
		key  []byte
		val  []byte
		tomb bool
		loc  uint64
	}
	var items []item
	s.index.Scan(s.clk, start, count+len(s.memEnts), func(k []byte, v uint64) bool {
		items = append(items, item{key: append([]byte(nil), k...), loc: v})
		return true
	})
	// Overlay memtable (newer) entries.
	for _, e := range s.memEnts {
		if bytes.Compare(e.key, start) < 0 {
			continue
		}
		found := false
		for i := range items {
			if bytes.Equal(items[i].key, e.key) {
				items[i].val, items[i].tomb = e.val, e.tomb
				items[i].loc = 0
				found = true
				break
			}
		}
		if !found {
			items = append(items, item{key: e.key, val: e.val, tomb: e.tomb})
		}
	}
	sort.Slice(items, func(a, b int) bool { return bytes.Compare(items[a].key, items[b].key) < 0 })
	emitted := 0
	for _, it := range items {
		if it.tomb {
			continue
		}
		if emitted >= count {
			break
		}
		val := it.val
		if val == nil && it.loc != 0 {
			_, off, n := unpackLoc(it.loc)
			val = s.readExtent(off, n)
		}
		emitted++
		if !fn(it.key, val) {
			break
		}
	}
	return nil
}

// readExtent reads [off, off+n) through the page cache.
func (s *Store) readExtent(off int64, n int) []byte {
	first := off / pageSize
	last := (off + int64(n) - 1) / pageSize
	var buf []byte
	for p := first; p <= last; p++ {
		pg, ok := s.pcache[p]
		if !ok {
			pg = make([]byte, pageSize)
			comps := s.dev.Submit(s.clk.Now(), []ssd.Request{{Op: ssd.OpRead, Offset: p * pageSize, Data: pg}})
			s.clk.AdvanceTo(comps[0].DoneTime)
			s.cachePage(p, pg)
		} else {
			s.clk.Advance(300)
		}
		buf = append(buf, pg...)
	}
	rel := off - first*pageSize
	return append([]byte(nil), buf[rel:rel+int64(n)]...)
}

// invalidatePages drops cached pages covering [off, off+n) — required
// whenever an extent is rewritten after reuse.
func (s *Store) invalidatePages(off, n int64) {
	for p := off / pageSize; p <= (off+n-1)/pageSize; p++ {
		delete(s.pcache, p)
	}
}

func (s *Store) cachePage(p int64, pg []byte) {
	s.pcache[p] = pg
	s.plru = append(s.plru, p)
	for int64(len(s.pcache))*pageSize > s.pcacheCap && len(s.plru) > 0 {
		victim := s.plru[0]
		s.plru = s.plru[1:]
		delete(s.pcache, victim)
	}
}

// flush writes the memtable as one sorted data file, updates the global
// index, and runs selective compaction on decayed files.
func (s *Store) flush() error {
	ents := append([]memEntry(nil), s.memEnts...)
	sort.Slice(ents, func(a, b int) bool { return bytes.Compare(ents[a].key, ents[b].key) < 0 })

	var data []byte
	type pending struct {
		key  []byte
		off  int64
		n    int
		tomb bool
	}
	var pend []pending
	for _, e := range ents {
		if e.tomb {
			pend = append(pend, pending{key: e.key, tomb: true})
			continue
		}
		pend = append(pend, pending{key: e.key, off: int64(len(data)), n: len(e.val)})
		data = append(data, e.val...)
	}
	if len(data) > 0 {
		for len(data)%pageSize != 0 {
			data = append(data, 0)
		}
		base, err := s.alloc.Alloc(int64(len(data)))
		if err != nil {
			return fmt.Errorf("slmdb: %w", err)
		}
		comps := s.dev.Submit(s.clk.Now(), []ssd.Request{{Op: ssd.OpWrite, Offset: base, Data: data}})
		s.dev.Ack(comps[0])
		s.clk.AdvanceTo(comps[0].DoneTime)
		s.invalidatePages(base, int64(len(data)))
		s.nextID++
		f := &dataFile{id: s.nextID, off: base, size: int64(len(data))}
		s.files[f.id] = f
		for i := range pend {
			if !pend[i].tomb {
				pend[i].off += base
				f.total++
				f.live++
			}
		}
		// Install index entries (B+tree on NVM, its own crash consistency).
		for _, p := range pend {
			if p.tomb {
				if old, ok := s.index.Delete(s.clk, p.key); ok {
					s.decay(old)
				}
				continue
			}
			if old, existed := s.index.Upsert(s.clk, p.key, packLoc(f.id, p.off, p.n)); existed {
				s.decay(old)
			}
		}
	} else {
		for _, p := range pend {
			if old, ok := s.index.Delete(s.clk, p.key); ok {
				s.decay(old)
			}
		}
	}
	s.memKeys = map[string]int{}
	s.memEnts = s.memEnts[:0]
	s.memBytes = 0
	s.flushes++
	s.selectiveCompact()
	return nil
}

// decay marks the old location dead and reclaims empty files.
func (s *Store) decay(oldLoc uint64) {
	fid, _, _ := unpackLoc(oldLoc)
	f := s.files[fid]
	if f == nil {
		return
	}
	f.live--
	if f.live <= 0 {
		s.alloc.Release(f.off, f.size)
		delete(s.files, fid)
	}
}

// selectiveCompact merges files whose live ratio fell below the
// threshold (SLM-DB's garbage collection; single-threaded, so it runs on
// the foreground clock — one source of its degraded throughput, §7.4).
func (s *Store) selectiveCompact() {
	var victims []*dataFile
	for _, f := range s.files {
		if f.total > 0 && float64(f.live)/float64(f.total) < s.cfg.LiveRatioGC {
			victims = append(victims, f)
			if len(victims) == 2 {
				break
			}
		}
	}
	if len(victims) == 0 {
		return
	}
	s.compacts++
	// Collect live entries by probing the index for every key pointing
	// into a victim: walk the whole index once (SLM-DB keeps per-file
	// metadata; a full B+tree walk models the same cost envelope).
	vset := map[int]*dataFile{}
	for _, f := range victims {
		vset[f.id] = f
	}
	type liveEnt struct {
		key []byte
		val []byte
	}
	var live []liveEnt
	s.index.Scan(s.clk, nil, 0, func(k []byte, v uint64) bool {
		fid, off, n := unpackLoc(v)
		if _, ok := vset[fid]; ok {
			live = append(live, liveEnt{key: append([]byte(nil), k...), val: s.readExtent(off, n)})
		}
		return true
	})
	var data []byte
	type pl struct {
		key []byte
		off int64
		n   int
	}
	var pend []pl
	for _, e := range live {
		pend = append(pend, pl{key: e.key, off: int64(len(data)), n: len(e.val)})
		data = append(data, e.val...)
	}
	if len(data) > 0 {
		for len(data)%pageSize != 0 {
			data = append(data, 0)
		}
		base, err := s.alloc.Alloc(int64(len(data)))
		if err != nil {
			return // out of space: skip compaction
		}
		comps := s.dev.Submit(s.clk.Now(), []ssd.Request{{Op: ssd.OpWrite, Offset: base, Data: data}})
		s.dev.Ack(comps[0])
		s.clk.AdvanceTo(comps[0].DoneTime)
		s.invalidatePages(base, int64(len(data)))
		s.nextID++
		f := &dataFile{id: s.nextID, off: base, size: int64(len(data)), total: len(pend), live: len(pend)}
		s.files[f.id] = f
		for _, p := range pend {
			s.index.Upsert(s.clk, p.key, packLoc(f.id, base+p.off, p.n))
		}
	}
	for _, v := range victims {
		if s.files[v.id] != nil {
			s.alloc.Release(v.off, v.size)
			delete(s.files, v.id)
		}
	}
}
