// Package kvell reimplements the KVell baseline (Lepers et al., SOSP'19)
// the paper compares against in §7.3: a shared-nothing key-value store
// over DRAM + SSD with no NVM.
//
// Design, following the original:
//
//   - The keyspace is hash-partitioned across worker threads; each
//     worker owns an in-DRAM sorted index, a slab of fixed-size item
//     slots on its SSD, and a page cache. No structure is shared, so
//     there is no synchronization — and no defense against skew: a hot
//     partition's worker saturates while others idle (§7.6).
//   - Items live in 4 KB pages; sub-page updates are read-modify-write.
//     Writes are committed when the page write completes (no commit
//     log), reads hit the page cache or fetch whole pages.
//   - Workers batch IO up to a queue depth before submitting, which
//     yields bandwidth at the cost of queueing latency — the tail-latency
//     amplification Table 3 shows.
//   - Scans must consult every partition and merge, costing an index
//     probe and page reads per partition.
//   - Recovery scans all slabs to rebuild the in-memory indexes.
package kvell

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/keyindex"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// PageSize is the slab IO granularity (4 KB, as in KVell).
const PageSize = 4096

// Config parameterizes a KVell instance.
type Config struct {
	Workers    int   // shared-nothing partitions (default 4)
	NumSSDs    int   // devices; workers are striped across them (default 2)
	SSDBytes   int64 // per-device capacity (default 64 MiB)
	ItemSize   int   // fixed slot size incl. 16-byte header (default 1040)
	CacheBytes int64 // total DRAM page cache (split across workers)
	QueueDepth int   // IO batch limit per worker (default 64)
	SSD        ssd.Config

	// Clients is the number of client (injector) thread handles.
	Clients int
}

func (c *Config) applyDefaults() {
	if c.NumSSDs == 0 {
		c.NumSSDs = 2
	}
	if c.Workers == 0 {
		c.Workers = 3 * c.NumSSDs // KVell's own configuration (§7.1)
	}
	if c.SSDBytes == 0 {
		c.SSDBytes = 64 << 20
	}
	if c.ItemSize == 0 {
		c.ItemSize = 1040
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 4 << 20
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Clients == 0 {
		c.Clients = c.Workers
	}
}

const itemHeader = 16 // [keyLen:4][valLen:4][keyHash:8] per slot

// Store is a KVell instance.
type Store struct {
	cfg     Config
	devs    []*ssd.Device
	workers []*worker
	clients []*client

	mu     sync.Mutex
	userWr int64
}

// request is one operation shipped to a worker.
type request struct {
	op      opKind
	key     []byte
	value   []byte
	scanCnt int
	slots   []int64 // opFetch targets
	arrive  int64
	resp    chan response
}

type opKind uint8

const (
	opPut opKind = iota
	opGet
	opDelete
	opScanKeys // phase 1: local index range (keys + slots), no IO
	opFetch    // phase 2: fetch values for chosen slots
)

type response struct {
	done  int64
	value []byte
	err   error
	items []engine.Pair // scan results
	slots []int64       // opScanKeys slot numbers, parallel to items
}

// Open creates a KVell store.
func Open(cfg Config) *Store {
	cfg.applyDefaults()
	s := &Store{cfg: cfg}
	for i := 0; i < cfg.NumSSDs; i++ {
		sc := cfg.SSD
		sc.Size = cfg.SSDBytes
		sc.Name = fmt.Sprintf("kvell-ssd%d", i)
		s.devs = append(s.devs, ssd.New(sc))
	}
	perWorkerSlab := cfg.SSDBytes * int64(cfg.NumSSDs) / int64(cfg.Workers)
	perWorkerSlab = perWorkerSlab / PageSize * PageSize
	for w := 0; w < cfg.Workers; w++ {
		dev := s.devs[w%cfg.NumSSDs]
		base := int64(w/cfg.NumSSDs) * perWorkerSlab
		wk := newWorker(w, dev, base, perWorkerSlab, cfg)
		s.workers = append(s.workers, wk)
		go wk.run()
	}
	for c := 0; c < cfg.Clients; c++ {
		s.clients = append(s.clients, &client{s: s, clk: sim.NewClock(0)})
	}
	return s
}

// Thread returns client handle i.
func (s *Store) Thread(i int) engine.KV { return s.clients[i] }

// NumThreads returns the number of client handles.
func (s *Store) NumThreads() int { return len(s.clients) }

// Close stops the workers.
func (s *Store) Close() error {
	for _, w := range s.workers {
		close(w.in)
	}
	for _, w := range s.workers {
		<-w.done
	}
	return nil
}

// WriteAmp returns (device bytes written, user bytes written).
func (s *Store) WriteAmp() (device, user int64) {
	for _, d := range s.devs {
		device += d.Stats().BytesWritten
	}
	s.mu.Lock()
	user = s.userWr
	s.mu.Unlock()
	return device, user
}

func (s *Store) addUserBytes(n int) {
	s.mu.Lock()
	s.userWr += int64(n)
	s.mu.Unlock()
}

// partition routes a key to its worker.
func (s *Store) partition(key []byte) *worker {
	h := uint64(0xcbf29ce484222325)
	for _, b := range key {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return s.workers[h%uint64(len(s.workers))]
}

// Recover simulates KVell's restart path: every worker scans its entire
// slab to rebuild the in-memory index. It returns the modeled recovery
// time (max across workers, which run in parallel).
func (s *Store) Recover() int64 {
	var maxNS int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, w := range s.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			ns := w.rebuildFromSlab()
			mu.Lock()
			if ns > maxNS {
				maxNS = ns
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return maxNS
}

// client is one injector thread handle.
type client struct {
	s   *Store
	clk *sim.Clock
}

// Clock returns the client's virtual clock.
func (c *client) Clock() *sim.Clock { return c.clk }

func (c *client) call(w *worker, req request) response {
	req.arrive = c.clk.Now()
	req.resp = make(chan response, 1)
	w.in <- req
	r := <-req.resp
	c.clk.AdvanceTo(r.done)
	return r
}

// Put stores key/value (insert or update).
func (c *client) Put(key, value []byte) error {
	c.s.addUserBytes(len(value))
	r := c.call(c.s.partition(key), request{op: opPut, key: key, value: value})
	return r.err
}

// Get fetches the value for key.
func (c *client) Get(key []byte) ([]byte, error) {
	r := c.call(c.s.partition(key), request{op: opGet, key: key})
	return r.value, r.err
}

// Delete removes key.
func (c *client) Delete(key []byte) error {
	r := c.call(c.s.partition(key), request{op: opDelete, key: key})
	return r.err
}

// Scan is KVell's partitioned range query: every worker is asked for
// its local index range (keys only), the client merges to pick the
// winners, then fetches each winner's item from its partition — one
// index probe per partition plus one page read per item, with no
// spatial locality (§7.3: "KVell incurs more IOs to the SSD for a given
// key range").
func (c *client) Scan(start []byte, count int, fn func(key, value []byte) bool) error {
	if count <= 0 {
		count = 1 << 30
	}
	type cand struct {
		key    []byte
		slot   int64
		worker int
	}
	var all []cand
	for wi, w := range c.s.workers {
		r := c.call(w, request{op: opScanKeys, key: start, scanCnt: count})
		if r.err != nil {
			return r.err
		}
		for i, p := range r.items {
			all = append(all, cand{key: p.Key, slot: r.slots[i], worker: wi})
		}
	}
	sort.Slice(all, func(a, b int) bool { return bytes.Compare(all[a].key, all[b].key) < 0 })
	if len(all) > count {
		all = all[:count]
	}
	// Group winners per worker, fetch, then emit in key order.
	bySlot := map[string][]byte{}
	perWorker := map[int][]int64{}
	for _, cd := range all {
		perWorker[cd.worker] = append(perWorker[cd.worker], cd.slot)
	}
	for wi, slots := range perWorker {
		r := c.call(c.s.workers[wi], request{op: opFetch, slots: slots})
		if r.err != nil {
			return r.err
		}
		for i, p := range r.items {
			bySlot[fmt.Sprintf("%d/%d", wi, slots[i])] = p.Value
		}
	}
	for _, cd := range all {
		v := bySlot[fmt.Sprintf("%d/%d", cd.worker, cd.slot)]
		if v == nil {
			continue
		}
		if !fn(cd.key, v) {
			break
		}
	}
	return nil
}

// worker owns one partition.
type worker struct {
	id   int
	cfg  Config
	dev  *ssd.Device
	base int64 // slab base offset on dev
	size int64 // slab bytes

	in   chan request
	done chan struct{}
	busy atomic.Int64 // latest CPU-busy timestamp (skew diagnostics)

	index *keyindex.Index // key -> slot number
	slots int64           // slots in the slab
	next  int64           // bump allocator
	free  []int64

	itemsPerPage int
	cache        *pageCache
}

func newWorker(id int, dev *ssd.Device, base, size int64, cfg Config) *worker {
	w := &worker{
		id:   id,
		cfg:  cfg,
		dev:  dev,
		base: base,
		size: size,
		in:   make(chan request, 4*cfg.QueueDepth),
		done: make(chan struct{}),

		index:        keyindex.New(nil),
		itemsPerPage: PageSize / cfg.ItemSize,
	}
	if w.itemsPerPage == 0 {
		panic("kvell: item size exceeds page size")
	}
	w.slots = size / PageSize * int64(w.itemsPerPage)
	w.cache = newPageCache(cfg.CacheBytes / int64(cfg.Workers) / PageSize)
	return w
}

// slotLoc returns the page offset (device) and intra-page byte offset.
func (w *worker) slotLoc(slot int64) (pageOff int64, intra int) {
	page := slot / int64(w.itemsPerPage)
	idx := int(slot % int64(w.itemsPerPage))
	return w.base + page*PageSize, idx * w.cfg.ItemSize
}

// run is the worker loop: drain a batch (up to QueueDepth), process it,
// respond. Batching is what gives KVell bandwidth — and queueing delay.
func (w *worker) run() {
	defer close(w.done)
	for {
		req, ok := <-w.in
		if !ok {
			return
		}
		batch := []request{req}
		for len(batch) < w.cfg.QueueDepth {
			select {
			case r, ok := <-w.in:
				if !ok {
					w.process(batch)
					return
				}
				batch = append(batch, r)
			default:
				goto full
			}
		}
	full:
		w.process(batch)
	}
}

// ioCtx tracks one request's asynchronous IO completion independently of
// the worker's CPU clock. KVell submits up to QueueDepth IOs before
// reaping completions, so device latencies within a batch overlap; only
// CPU work serializes on the worker.
type ioCtx struct {
	ioDone int64
}

func (x *ioCtx) observe(t int64) {
	if t > x.ioDone {
		x.ioDone = t
	}
}

// complete is a request's completion time: its CPU window plus its last IO.
func complete(clk *sim.Clock, x *ioCtx) int64 {
	t := clk.Now()
	if x.ioDone > t {
		t = x.ioDone
	}
	return t
}

// process services one drained batch. The batch is the set of requests
// that are genuinely concurrent, so the worker's serial CPU is modeled
// within it: requests are served in virtual-arrival order, each window
// starting no earlier than its arrival and no earlier than the previous
// window's end. Across batches the worker may backfill idle gaps (a new
// batch's earlier arrivals are not stranded behind an old batch's
// future-time request). IO overlaps through the device queues, with each
// request's completion tracked separately (async queue-depth semantics).
func (w *worker) process(batch []request) {
	sort.Slice(batch, func(a, b int) bool { return batch[a].arrive < batch[b].arrive })
	var cpuFree int64
	for _, r := range batch {
		start := r.arrive
		if cpuFree > start {
			start = cpuFree
		}
		end := start + 1500 // hash, index, queue handling
		cpuFree = end
		clk := sim.NewClock(end)
		var x ioCtx
		switch r.op {
		case opGet:
			r.resp <- w.get(clk, r, &x)
		case opPut:
			r.resp <- w.put(clk, r, &x)
		case opDelete:
			r.resp <- w.del(clk, r, &x)
		case opScanKeys:
			r.resp <- w.scanKeys(clk, r)
		case opFetch:
			r.resp <- w.fetch(clk, r, &x)
		}
		cpuFree = clk.Now() // CPU consumed by cache copies, index walks
		if t := clk.Now(); t > w.busy.Load() {
			w.busy.Store(t)
		}
	}
}

// readPage returns the page at pageOff through the cache, submitting a
// device read at the worker's current CPU time on a miss. The data is
// available immediately for processing; the request's completion waits
// for the IO via ctx.
func (w *worker) readPage(clk *sim.Clock, x *ioCtx, pageOff int64) []byte {
	if pg := w.cache.get(pageOff); pg != nil {
		clk.Advance(300) // DRAM hit
		return pg
	}
	buf := make([]byte, PageSize)
	comps := w.dev.Submit(clk.Now(), []ssd.Request{{Op: ssd.OpRead, Offset: pageOff, Data: buf}})
	x.observe(comps[0].DoneTime)
	w.cache.put(pageOff, buf)
	return buf
}

// writePage submits the page write (commit point is its completion,
// carried in ctx) and updates the cache.
func (w *worker) writePage(clk *sim.Clock, x *ioCtx, pageOff int64, pg []byte) {
	at := clk.Now()
	if x.ioDone > at {
		at = x.ioDone // RMW: the write depends on the read completing
	}
	comps := w.dev.Submit(at, []ssd.Request{{Op: ssd.OpWrite, Offset: pageOff, Data: pg}})
	w.dev.Ack(comps[0])
	x.observe(comps[0].DoneTime)
	w.cache.put(pageOff, pg)
}

func (w *worker) get(clk *sim.Clock, r request, x *ioCtx) response {
	slot, ok := w.index.Lookup(nil, r.key)
	if !ok {
		return response{done: complete(clk, x), err: engine.ErrNotFound}
	}
	pageOff, intra := w.slotLoc(int64(slot))
	pg := w.readPage(clk, x, pageOff)
	_, val, ok := decodeItem(pg[intra:], w.cfg.ItemSize)
	if !ok {
		return response{done: complete(clk, x), err: engine.ErrNotFound}
	}
	return response{done: complete(clk, x), value: append([]byte(nil), val...)}
}

func (w *worker) put(clk *sim.Clock, r request, x *ioCtx) response {
	if len(r.key)+len(r.value)+itemHeader > w.cfg.ItemSize {
		return response{done: complete(clk, x), err: fmt.Errorf("kvell: item exceeds slot size %d", w.cfg.ItemSize)}
	}
	slot64, ok := w.index.Lookup(nil, r.key)
	var slot int64
	if ok {
		slot = int64(slot64)
	} else {
		var err error
		slot, err = w.allocSlot()
		if err != nil {
			return response{done: complete(clk, x), err: err}
		}
		w.index.Insert(nil, r.key, uint64(slot))
	}
	// Read-modify-write of the slot's page.
	pageOff, intra := w.slotLoc(slot)
	pg := w.readPage(clk, x, pageOff)
	npg := append([]byte(nil), pg...)
	encodeItem(npg[intra:intra+w.cfg.ItemSize], r.key, r.value)
	w.writePage(clk, x, pageOff, npg)
	return response{done: complete(clk, x)}
}

func (w *worker) del(clk *sim.Clock, r request, x *ioCtx) response {
	slot, ok := w.index.Delete(nil, r.key)
	if !ok {
		return response{done: complete(clk, x), err: engine.ErrNotFound}
	}
	pageOff, intra := w.slotLoc(int64(slot))
	pg := w.readPage(clk, x, pageOff)
	npg := append([]byte(nil), pg...)
	for i := 0; i < w.cfg.ItemSize; i++ {
		npg[intra+i] = 0
	}
	w.writePage(clk, x, pageOff, npg)
	w.free = append(w.free, int64(slot))
	return response{done: complete(clk, x)}
}

// scanKeys returns the local index range — keys and slots, no data IO.
func (w *worker) scanKeys(clk *sim.Clock, r request) response {
	var items []engine.Pair
	var slots []int64
	w.index.Scan(nil, r.key, r.scanCnt, func(k []byte, v uint64) bool {
		items = append(items, engine.Pair{Key: append([]byte(nil), k...)})
		slots = append(slots, int64(v))
		return true
	})
	clk.Advance(int64(len(items)) * 150) // index-walk CPU
	return response{done: clk.Now(), items: items, slots: slots}
}

// fetch reads the items in the given slots (page-granularity IO,
// overlapped within the batch).
func (w *worker) fetch(clk *sim.Clock, r request, x *ioCtx) response {
	items := make([]engine.Pair, len(r.slots))
	for i, slot := range r.slots {
		pageOff, intra := w.slotLoc(slot)
		pg := w.readPage(clk, x, pageOff)
		k, val, ok := decodeItem(pg[intra:], w.cfg.ItemSize)
		if ok {
			items[i] = engine.Pair{Key: append([]byte(nil), k...), Value: append([]byte(nil), val...)}
		}
	}
	return response{done: complete(clk, x), items: items}
}

func (w *worker) allocSlot() (int64, error) {
	if n := len(w.free); n > 0 {
		s := w.free[n-1]
		w.free = w.free[:n-1]
		return s, nil
	}
	if w.next >= w.slots {
		return 0, fmt.Errorf("kvell: worker %d slab full", w.id)
	}
	w.next++
	return w.next - 1, nil
}

// rebuildFromSlab scans the worker's slab pages and rebuilds the index;
// returns the modeled time.
func (w *worker) rebuildFromSlab() int64 {
	begin := w.dev.Now() // not zero: the scan would be served in the device's past, or be pulled to its horizon
	clk := sim.NewClock(begin)
	w.index = keyindex.New(nil)
	w.free = w.free[:0]
	used := w.next / int64(w.itemsPerPage) * PageSize
	if w.next%int64(w.itemsPerPage) != 0 {
		used += PageSize
	}
	const extent = 1 << 20
	for off := int64(0); off < used; off += extent {
		n := extent
		if int64(n) > used-off {
			n = int(used - off)
		}
		buf := make([]byte, n)
		comps := w.dev.Submit(clk.Now(), []ssd.Request{{Op: ssd.OpRead, Offset: w.base + off, Data: buf}})
		clk.AdvanceTo(comps[0].DoneTime)
		for p := 0; p+PageSize <= n; p += PageSize {
			for it := 0; it < w.itemsPerPage; it++ {
				slot := (off+int64(p))/PageSize*int64(w.itemsPerPage) + int64(it)
				key, _, ok := decodeItem(buf[p+it*w.cfg.ItemSize:p+(it+1)*w.cfg.ItemSize], w.cfg.ItemSize)
				if ok {
					w.index.Insert(nil, key, uint64(slot))
				} else if slot < w.next {
					w.free = append(w.free, slot)
				}
			}
		}
		clk.Advance(int64(n / 64)) // CPU parse cost
	}
	return clk.Now() - begin
}

func encodeItem(dst []byte, key, val []byte) {
	putU32(dst[0:], uint32(len(key)))
	putU32(dst[4:], uint32(len(val)))
	putU64(dst[8:], 0xdead1077)
	copy(dst[itemHeader:], key)
	copy(dst[itemHeader+len(key):], val)
}

func decodeItem(src []byte, itemSize int) (key, val []byte, ok bool) {
	if len(src) < itemHeader {
		return nil, nil, false
	}
	kl := int(getU32(src[0:]))
	vl := int(getU32(src[4:]))
	if getU64(src[8:]) != 0xdead1077 || kl == 0 || itemHeader+kl+vl > itemSize || itemHeader+kl+vl > len(src) {
		return nil, nil, false
	}
	return src[itemHeader : itemHeader+kl], src[itemHeader+kl : itemHeader+kl+vl], true
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}
func getU64(b []byte) uint64 {
	return uint64(getU32(b)) | uint64(getU32(b[4:]))<<32
}

// pageCache is a simple LRU of whole pages.
type pageCache struct {
	capPages int64
	m        map[int64]*cacheNode
	head     *cacheNode
	tail     *cacheNode
}

type cacheNode struct {
	off        int64
	pg         []byte
	prev, next *cacheNode
}

func newPageCache(capPages int64) *pageCache {
	if capPages < 1 {
		capPages = 1
	}
	return &pageCache{capPages: capPages, m: make(map[int64]*cacheNode)}
}

func (c *pageCache) get(off int64) []byte {
	n := c.m[off]
	if n == nil {
		return nil
	}
	c.moveFront(n)
	return n.pg
}

func (c *pageCache) put(off int64, pg []byte) {
	if n := c.m[off]; n != nil {
		n.pg = pg
		c.moveFront(n)
		return
	}
	n := &cacheNode{off: off, pg: pg}
	c.m[off] = n
	c.pushFront(n)
	if int64(len(c.m)) > c.capPages {
		victim := c.tail
		c.unlink(victim)
		delete(c.m, victim.off)
	}
}

func (c *pageCache) pushFront(n *cacheNode) {
	n.next = c.head
	n.prev = nil
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *pageCache) unlink(n *cacheNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *pageCache) moveFront(n *cacheNode) {
	c.unlink(n)
	c.pushFront(n)
}
