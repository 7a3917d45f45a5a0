package lsm

import (
	"bytes"
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/ssd"
)

// blockSize is the SSTable data-block size (RocksDB default 4 KB).
const blockSize = 4096

// entry is one key-value record (tombstones carry a nil value and the
// tomb flag).
type entry struct {
	key  []byte
	val  []byte
	tomb bool
}

// SSTable is one immutable sorted run on a block device. The block index
// and bloom filter live in DRAM (as an opened table's metadata would);
// data blocks are read from the device through the shared block cache.
type SSTable struct {
	id      uint64
	dev     *ssd.Device
	alloc   *ExtentAlloc
	off     int64
	size    int64
	minKey  []byte
	maxKey  []byte
	index   []blockMeta
	bloom   bloomFilter
	entries int
}

type blockMeta struct {
	firstKey []byte
	off      int64 // relative to table base
	n        int
}

var tableIDs atomic.Uint64

// encodeEntry appends one record: [klen:2][vlen:4 (high bit = tombstone)][key][val].
func encodeEntry(dst []byte, e entry) []byte {
	var hdr [6]byte
	binary.LittleEndian.PutUint16(hdr[0:], uint16(len(e.key)))
	v := uint32(len(e.val))
	if e.tomb {
		v |= 1 << 31
	}
	binary.LittleEndian.PutUint32(hdr[2:], v)
	dst = append(dst, hdr[:]...)
	dst = append(dst, e.key...)
	dst = append(dst, e.val...)
	return dst
}

func entrySize(e entry) int { return 6 + len(e.key) + len(e.val) }

// decodeEntries parses all records in a block.
func decodeEntries(b []byte, fn func(e entry) bool) {
	for len(b) >= 6 {
		kl := int(binary.LittleEndian.Uint16(b[0:]))
		v := binary.LittleEndian.Uint32(b[2:])
		tomb := v&(1<<31) != 0
		vl := int(v &^ (1 << 31))
		if kl == 0 || 6+kl+vl > len(b) {
			return // padding
		}
		if !fn(entry{key: b[6 : 6+kl], val: b[6+kl : 6+kl+vl], tomb: tomb}) {
			return
		}
		b = b[6+kl+vl:]
	}
}

// buildSSTable writes a sorted entry stream as one table with a single
// large sequential device write at virtual time clk.Now().
func buildSSTable(clk *sim.Clock, dev *ssd.Device, alloc *ExtentAlloc, entries []entry) (*SSTable, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	t := &SSTable{
		id:      tableIDs.Add(1),
		dev:     dev,
		alloc:   alloc,
		minKey:  append([]byte(nil), entries[0].key...),
		maxKey:  append([]byte(nil), entries[len(entries)-1].key...),
		bloom:   newBloom(len(entries)),
		entries: len(entries),
	}
	var data []byte
	blockStart := 0
	t.index = append(t.index, blockMeta{firstKey: append([]byte(nil), entries[0].key...), off: 0})
	for _, e := range entries {
		if len(data)-blockStart+entrySize(e) > blockSize && len(data) > blockStart {
			// Pad and seal the block.
			for len(data)%blockSize != 0 {
				data = append(data, 0)
			}
			t.index[len(t.index)-1].n = len(data) - blockStart
			blockStart = len(data)
			t.index = append(t.index, blockMeta{firstKey: append([]byte(nil), e.key...), off: int64(blockStart)})
		}
		data = encodeEntry(data, e)
		t.bloom.add(e.key)
	}
	for len(data)%blockSize != 0 {
		data = append(data, 0)
	}
	t.index[len(t.index)-1].n = len(data) - blockStart
	t.size = int64(len(data))

	off, err := alloc.Alloc(t.size)
	if err != nil {
		return nil, err
	}
	t.off = off
	comps := dev.Submit(clk.Now(), []ssd.Request{{Op: ssd.OpWrite, Offset: off, Data: data}})
	dev.Ack(comps[0])
	clk.AdvanceTo(comps[0].DoneTime)
	return t, nil
}

// release frees the table's device extent.
func (t *SSTable) release() { t.alloc.Release(t.off, t.size) }

// mayContain is the bloom-filter pre-check.
func (t *SSTable) mayContain(key []byte) bool {
	if bytes.Compare(key, t.minKey) < 0 || bytes.Compare(key, t.maxKey) > 0 {
		return false
	}
	return t.bloom.mayContain(key)
}

// findBlock returns the index of the block that could hold key.
func (t *SSTable) findBlock(key []byte) int {
	i := sort.Search(len(t.index), func(i int) bool {
		return bytes.Compare(t.index[i].firstKey, key) > 0
	})
	if i == 0 {
		return 0
	}
	return i - 1
}

// readBlock fetches block bi through the cache, charging clk.
func (t *SSTable) readBlock(clk *sim.Clock, cache *blockCache, bi int) []byte {
	if cache != nil {
		if b := cache.get(t.id, bi); b != nil {
			// Cache hit: LRU lock (serialized across threads) plus block
			// checksum + decode CPU.
			_, end := cache.lock.Acquire(clk.Now(), 1000)
			clk.AdvanceTo(end)
			clk.Advance(1200)
			return b
		}
	}
	bm := t.index[bi]
	buf := make([]byte, bm.n)
	comps := t.dev.Submit(clk.Now(), []ssd.Request{{Op: ssd.OpRead, Offset: t.off + bm.off, Data: buf}})
	clk.AdvanceTo(comps[0].DoneTime)
	if cache != nil {
		cache.put(t.id, bi, buf)
	}
	return buf
}

// get looks key up in the table.
func (t *SSTable) get(clk *sim.Clock, cache *blockCache, key []byte) (val []byte, tomb, found bool) {
	if !t.mayContain(key) {
		clk.Advance(120) // bloom probe CPU
		return nil, false, false
	}
	b := t.readBlock(clk, cache, t.findBlock(key))
	decodeEntries(b, func(e entry) bool {
		switch bytes.Compare(e.key, key) {
		case 0:
			val = append([]byte(nil), e.val...)
			tomb = e.tomb
			found = true
			return false
		case 1:
			return false
		}
		return true
	})
	return val, tomb, found
}

// scanFrom yields entries with key >= start in order until fn says stop.
func (t *SSTable) scanFrom(clk *sim.Clock, cache *blockCache, start []byte, fn func(e entry) bool) {
	for bi := t.findBlock(start); bi < len(t.index); bi++ {
		b := t.readBlock(clk, cache, bi)
		stop := false
		decodeEntries(b, func(e entry) bool {
			if bytes.Compare(e.key, start) < 0 {
				return true
			}
			if !fn(e) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// allEntries materializes the table (compaction input).
func (t *SSTable) allEntries(clk *sim.Clock, cache *blockCache) []entry {
	var out []entry
	for bi := range t.index {
		b := t.readBlock(clk, cache, bi)
		decodeEntries(b, func(e entry) bool {
			out = append(out, entry{
				key:  append([]byte(nil), e.key...),
				val:  append([]byte(nil), e.val...),
				tomb: e.tomb,
			})
			return true
		})
	}
	return out
}

// overlaps reports key-range overlap with [min, max].
func (t *SSTable) overlaps(min, max []byte) bool {
	return bytes.Compare(t.minKey, max) <= 0 && bytes.Compare(min, t.maxKey) <= 0
}

// bloomFilter is a double-hashed bloom filter (~10 bits/key, ~1% FPR).
type bloomFilter struct {
	bits []uint64
	k    int
}

func newBloom(n int) bloomFilter {
	if n < 1 {
		n = 1
	}
	words := (n*10 + 63) / 64
	return bloomFilter{bits: make([]uint64, words), k: 7}
}

func bloomHash(key []byte) (uint64, uint64) {
	var h1, h2 uint64 = 0xcbf29ce484222325, 0x9e3779b97f4a7c15
	for _, b := range key {
		h1 = (h1 ^ uint64(b)) * 0x100000001b3
		h2 = (h2 + uint64(b)) * 0xff51afd7ed558ccd
	}
	return h1, h2
}

func (f bloomFilter) add(key []byte) {
	h1, h2 := bloomHash(key)
	m := uint64(len(f.bits) * 64)
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % m
		f.bits[bit/64] |= 1 << (bit % 64)
	}
}

func (f bloomFilter) mayContain(key []byte) bool {
	h1, h2 := bloomHash(key)
	m := uint64(len(f.bits) * 64)
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % m
		if f.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// blockCache is a shared LRU over (table, block) with a byte budget. The
// lock resource models the serialization real LSM block caches pay on
// every hit (shard mutex + LRU maintenance) — one of the CPU costs §3
// argues dominates on fast storage.
type blockCache struct {
	mu    sync.Mutex
	lock  sim.Resource
	cap   int64
	bytes int64
	m     map[blockKey]*bcNode
	head  *bcNode
	tail  *bcNode
}

type blockKey struct {
	table uint64
	block int
}

type bcNode struct {
	key        blockKey
	data       []byte
	prev, next *bcNode
}

func newBlockCache(capBytes int64) *blockCache {
	if capBytes <= 0 {
		return nil
	}
	return &blockCache{cap: capBytes, m: make(map[blockKey]*bcNode)}
}

func (c *blockCache) get(table uint64, block int) []byte {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.m[blockKey{table, block}]
	if n == nil {
		return nil
	}
	c.moveFront(n)
	return n.data
}

func (c *blockCache) put(table uint64, block int, data []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := blockKey{table, block}
	if n := c.m[k]; n != nil {
		c.bytes += int64(len(data)) - int64(len(n.data))
		n.data = data
		c.moveFront(n)
	} else {
		n := &bcNode{key: k, data: data}
		c.m[k] = n
		c.pushFront(n)
		c.bytes += int64(len(data))
	}
	for c.bytes > c.cap && c.tail != nil {
		v := c.tail
		c.unlink(v)
		delete(c.m, v.key)
		c.bytes -= int64(len(v.data))
	}
}

func (c *blockCache) pushFront(n *bcNode) {
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *blockCache) unlink(n *bcNode) {
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

func (c *blockCache) moveFront(n *bcNode) {
	c.unlink(n)
	c.pushFront(n)
}
