// Package keyindex provides the Persistent Key Index of §4.1: a central,
// concurrent, ordered index mapping keys to HSIT entry indices.
//
// The paper uses PACTree and stresses that "Prism can replace it with any
// other range index" because the index is a black box that (a) is
// multicore-scalable, (b) lives on NVM, and (c) "ensures its own crash
// consistency" (§5.5). This implementation honors that contract with a
// lazy concurrent skip list (Herlihy et al.): wait-free lookups, per-node
// locking confined to structural changes, and ordered range scans. NVM
// residency is modeled: every traversal charges NVM read latency and
// bandwidth for the visited nodes, and structural updates charge write
// and persist costs, so the index contributes its real share to the
// virtual-time performance model and to the NVM-space accounting of §7.6.
package keyindex

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/nvm"
	"repro/internal/sim"
)

const maxHeight = 20

// Index is a concurrent ordered map from []byte keys to uint64 values
// (HSIT entry indices in Prism). Create with New.
type Index struct {
	head *node
	dev  *nvm.Device // optional cost model; nil = free accesses
	rnd  atomic.Uint64

	count atomic.Int64
	space atomic.Int64 // modeled NVM bytes
}

type node struct {
	key  []byte
	val  atomic.Uint64
	next []atomic.Pointer[node]

	mu          sync.Mutex
	marked      atomic.Bool
	fullyLinked atomic.Bool
}

func (n *node) height() int { return len(n.next) }

// New returns an empty index. dev may be nil; if set, accesses charge
// that device's latency/bandwidth model.
func New(dev *nvm.Device) *Index {
	h := &node{next: make([]atomic.Pointer[node], maxHeight)}
	h.fullyLinked.Store(true)
	return &Index{head: h, dev: dev, rnd: atomic.Uint64{}}
}

// nodeBytes models the NVM footprint of one index node: key bytes plus
// value, height pointers, and per-node metadata — comparable to a packed
// persistent index node.
func nodeBytes(keyLen, height int) int64 {
	return int64(keyLen) + 8 + int64(height)*8 + 16
}

func (ix *Index) chargeRead(clk *sim.Clock, nodes int) {
	if ix.dev != nil && nodes > 0 {
		// Upper index levels stay CPU-cache-resident; only a few node
		// visits per traversal reach NVM media.
		eff := 4 + nodes/8
		ix.dev.ChargeRead(clk, eff*nvm.LineSize)
	}
}

func (ix *Index) chargeWrite(clk *sim.Clock, bytes int) {
	if ix.dev != nil && bytes > 0 {
		ix.dev.ChargeWrite(clk, bytes)
	}
}

// randomHeight draws a geometric height from a shared deterministic
// stream (p = 1/2), safe for concurrent callers.
func (ix *Index) randomHeight() int {
	s := ix.rnd.Add(0x9e3779b97f4a7c15)
	z := s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	h := 1
	for z&1 == 1 && h < maxHeight {
		h++
		z >>= 1
	}
	return h
}

// findPaths locates key, filling preds/succs for all levels.
// Returns the level at which an equal key was found, or -1.
func (ix *Index) findPaths(key []byte, preds, succs *[maxHeight]*node) (int, int) {
	found := -1
	visited := 0
	pred := ix.head
	for level := maxHeight - 1; level >= 0; level-- {
		cur := pred.next[level].Load()
		for cur != nil && bytes.Compare(cur.key, key) < 0 {
			pred = cur
			cur = pred.next[level].Load()
			visited++
		}
		if found == -1 && cur != nil && bytes.Equal(cur.key, key) {
			found = level
		}
		preds[level] = pred
		succs[level] = cur
	}
	return found, visited + maxHeight
}

// Lookup returns the value stored for key.
func (ix *Index) Lookup(clk *sim.Clock, key []byte) (uint64, bool) {
	var preds, succs [maxHeight]*node
	lf, visited := ix.findPaths(key, &preds, &succs)
	ix.chargeRead(clk, visited)
	if lf == -1 {
		return 0, false
	}
	n := succs[lf]
	if n.fullyLinked.Load() && !n.marked.Load() {
		return n.val.Load(), true
	}
	return 0, false
}

// Insert stores val for key if absent. It returns the value now present
// and whether this call inserted it. Matching Prism's use, an existing
// key's value is returned untouched (the HSIT index for a key never
// changes while the key is live).
func (ix *Index) Insert(clk *sim.Clock, key []byte, val uint64) (uint64, bool) {
	topLayer := ix.randomHeight()
	var preds, succs [maxHeight]*node
	for {
		lf, visited := ix.findPaths(key, &preds, &succs)
		ix.chargeRead(clk, visited)
		if lf != -1 {
			n := succs[lf]
			if !n.marked.Load() {
				for !n.fullyLinked.Load() {
					// An in-flight insert of the same key: wait for it.
					runtime.Gosched()
				}
				return n.val.Load(), false
			}
			// Marked node being deleted: retry until it is unlinked.
			continue
		}

		// Lock predecessors bottom-up and validate.
		var prevPred *node
		valid := true
		highest := -1
		for level := 0; valid && level < topLayer; level++ {
			pred, succ := preds[level], succs[level]
			if pred != prevPred {
				pred.mu.Lock()
				highest = level
				prevPred = pred
			}
			valid = !pred.marked.Load() &&
				pred.next[level].Load() == succ &&
				(succ == nil || !succ.marked.Load())
		}
		if !valid {
			unlockPreds(&preds, highest)
			continue
		}

		n := &node{key: append([]byte(nil), key...), next: make([]atomic.Pointer[node], topLayer)}
		n.val.Store(val)
		for level := 0; level < topLayer; level++ {
			n.next[level].Store(succs[level])
		}
		for level := 0; level < topLayer; level++ {
			preds[level].next[level].Store(n)
		}
		n.fullyLinked.Store(true)
		unlockPreds(&preds, highest)

		nb := nodeBytes(len(key), topLayer)
		ix.space.Add(nb)
		ix.count.Add(1)
		// Persist the new node and the spliced pointers.
		ix.chargeWrite(clk, int(nb))
		return val, true
	}
}

// Upsert stores val for key, replacing any existing value. It returns
// the previous value if the key existed. (Prism itself never replaces an
// index value — the HSIT index is stable per live key — but the baseline
// engines' memtables need classic map semantics.)
func (ix *Index) Upsert(clk *sim.Clock, key []byte, val uint64) (old uint64, existed bool) {
	for {
		var preds, succs [maxHeight]*node
		lf, visited := ix.findPaths(key, &preds, &succs)
		ix.chargeRead(clk, visited)
		if lf == -1 {
			if _, inserted := ix.Insert(clk, key, val); inserted {
				return 0, false
			}
			continue // raced with a concurrent insert: retry as update
		}
		n := succs[lf]
		if n.marked.Load() {
			continue // mid-delete: retry
		}
		for !n.fullyLinked.Load() {
			runtime.Gosched()
		}
		old = n.val.Swap(val)
		ix.chargeWrite(clk, 8)
		return old, true
	}
}

func unlockPreds(preds *[maxHeight]*node, highest int) {
	var prev *node
	for level := 0; level <= highest; level++ {
		if preds[level] != prev {
			preds[level].mu.Unlock()
			prev = preds[level]
		}
	}
}

// Delete removes key, returning its value.
func (ix *Index) Delete(clk *sim.Clock, key []byte) (uint64, bool) {
	var preds, succs [maxHeight]*node
	var victim *node
	isMarked := false
	topLayer := -1
	for {
		lf, visited := ix.findPaths(key, &preds, &succs)
		ix.chargeRead(clk, visited)
		if !isMarked {
			if lf == -1 {
				return 0, false
			}
			victim = succs[lf]
			if !victim.fullyLinked.Load() || victim.marked.Load() || victim.height()-1 != lf {
				return 0, false
			}
			topLayer = victim.height()
			victim.mu.Lock()
			if victim.marked.Load() {
				victim.mu.Unlock()
				return 0, false
			}
			victim.marked.Store(true)
			isMarked = true
		}

		var prevPred *node
		valid := true
		highest := -1
		for level := 0; valid && level < topLayer; level++ {
			pred := preds[level]
			if pred != prevPred {
				pred.mu.Lock()
				highest = level
				prevPred = pred
			}
			valid = !pred.marked.Load() && pred.next[level].Load() == victim
		}
		if !valid {
			unlockPreds(&preds, highest)
			continue
		}

		for level := topLayer - 1; level >= 0; level-- {
			preds[level].next[level].Store(victim.next[level].Load())
		}
		val := victim.val.Load()
		victim.mu.Unlock()
		unlockPreds(&preds, highest)

		ix.space.Add(-nodeBytes(len(key), topLayer))
		ix.count.Add(-1)
		ix.chargeWrite(clk, topLayer*8+8)
		return val, true
	}
}

// Scan visits keys >= start in order, calling fn for each, until fn
// returns false or count entries have been visited (count <= 0 means
// unbounded). It is linearizable per visited node, not per snapshot —
// the semantics of the paper's range scans.
func (ix *Index) Scan(clk *sim.Clock, start []byte, count int, fn func(key []byte, val uint64) bool) {
	var preds, succs [maxHeight]*node
	_, visited := ix.findPaths(start, &preds, &succs)
	n := succs[0]
	seen := 0
	for n != nil {
		visited++
		if n.fullyLinked.Load() && !n.marked.Load() {
			if !fn(n.key, n.val.Load()) {
				break
			}
			seen++
			if count > 0 && seen >= count {
				break
			}
		}
		n = n.next[0].Load()
	}
	ix.chargeRead(clk, visited)
}

// Len returns the number of live keys.
func (ix *Index) Len() int { return int(ix.count.Load()) }

// SpaceBytes returns the modeled NVM footprint in bytes (§7.6 NVM-space
// experiment).
func (ix *Index) SpaceBytes() int64 { return ix.space.Load() }
