// Package epoch implements epoch-based memory reclamation as used by
// Prism for HSIT entries, PWB ring space and SVC entries (§5.4). Value
// Storage chunks are recycled without it: a read through a recycled
// chunk fails its backward-pointer check instead.
//
// A participant wraps every operation that may hold references to shared
// state in Enter/Exit. An object retired at global epoch e becomes safe
// to reclaim once the global epoch has advanced twice past e: the first
// advance guarantees no *new* operation can acquire a reference, the
// second that every operation which might already hold one has finished —
// the paper's two-epoch rule. Retire runs a callback then; an owner that
// keeps its retired objects itself, as the SVC keeps dropped entries for
// reuse, stamps each with Epoch and reuses it once Epoch is two past the
// stamp, without a callback or an allocation.
//
// Concurrency contract: Manager methods and Participant.Enter/Exit are
// safe from any goroutine, but a single Participant must not be shared —
// each thread registers its own. Retire may be called from inside or
// outside a critical section; retired functions run on whichever
// goroutine triggers collection (Collect/Barrier), so they must not
// block or re-enter the manager.
package epoch

import (
	"sync"
	"sync/atomic"
)

// Manager coordinates a set of participants and the retired-object lists.
// The zero value is not usable; create managers with NewManager.
type Manager struct {
	global atomic.Uint64

	mu      sync.Mutex
	parts   []*Participant
	retired []retiredItem
	spare   []retiredItem // Collect's ready list, kept between calls
}

// retiredItem is one pending callback, fn(arg).
type retiredItem struct {
	epoch uint64
	fn    func(uint64)
	arg   uint64
}

// NewManager returns an empty manager at epoch 0.
func NewManager() *Manager { return &Manager{} }

// Participant is one thread's registration with a Manager. A Participant
// must not be shared between concurrently running goroutines.
type Participant struct {
	m *Manager
	// state holds (epoch+1) while inside a critical section, 0 outside.
	state atomic.Uint64
	// enters counts critical sections begun; atomic because Manager.Enters
	// sums it from other goroutines while the owner keeps operating.
	enters atomic.Int64
	exits  uint64
}

// Register adds a participant. Participants are never removed; an idle
// participant (outside any critical section) does not block advancement.
func (m *Manager) Register() *Participant {
	p := &Participant{m: m}
	m.mu.Lock()
	m.parts = append(m.parts, p)
	m.mu.Unlock()
	return p
}

// Enter begins a critical section, pinning the current global epoch.
func (p *Participant) Enter() {
	p.enters.Add(1)
	for {
		e := p.m.global.Load()
		p.state.Store(e + 1)
		// Re-check: if the global epoch moved between the load and the
		// store we might have published a stale pin; retry so that the
		// pinned epoch is never older than global-at-publication.
		if p.m.global.Load() == e {
			return
		}
	}
}

// Exit ends the critical section. Every few exits the participant tries
// to advance the global epoch and reclaim, keeping reclamation off the
// common path but still prompt.
func (p *Participant) Exit() {
	p.state.Store(0)
	p.exits++
	if p.exits%64 == 0 {
		p.m.Collect()
	}
}

// Retire registers fn(arg) to run once two epochs have passed. Safe to
// call from any goroutine, inside or outside a critical section. A caller
// that keeps one fn and passes what differs per call as arg, instead of
// building a closure per call, retires without allocating.
func (m *Manager) Retire(fn func(uint64), arg uint64) {
	e := m.global.Load()
	m.mu.Lock()
	m.retired = append(m.retired, retiredItem{epoch: e, fn: fn, arg: arg})
	m.mu.Unlock()
}

// Collect tries to advance the global epoch and runs every retired
// callback that has satisfied the two-epoch rule. It returns the number
// of callbacks run.
func (m *Manager) Collect() int {
	m.tryAdvance()
	cur := m.global.Load()

	m.mu.Lock()
	ready := m.spare[:0] // taken: a concurrent Collect starts a list of its own
	m.spare = nil
	keep := m.retired[:0]
	for _, it := range m.retired {
		if cur >= it.epoch+2 {
			ready = append(ready, it)
		} else {
			keep = append(keep, it)
		}
	}
	clear(m.retired[len(keep):])
	m.retired = keep
	m.mu.Unlock()

	for _, it := range ready {
		it.fn(it.arg)
	}
	n := len(ready)
	clear(ready)
	m.mu.Lock()
	if m.spare == nil {
		m.spare = ready[:0]
	}
	m.mu.Unlock()
	return n
}

// tryAdvance bumps the global epoch if every active participant has
// observed the current one.
func (m *Manager) tryAdvance() {
	e := m.global.Load()
	m.mu.Lock()
	parts := m.parts
	m.mu.Unlock()
	for _, p := range parts {
		s := p.state.Load()
		if s != 0 && s != e+1 {
			return // active in an older epoch
		}
	}
	m.global.CompareAndSwap(e, e+1)
}

// DiscardRetired drops every pending retirement without running it.
// Crash simulation uses this: retired-but-unreclaimed callbacks are
// volatile deferred work (free-list pushes, ring releases) that a real
// machine loses with its DRAM — recovery rebuilds that state from
// durable media, and a stale callback firing afterwards would double-
// apply it (e.g., double-free an HSIT entry recovery already reissued).
func (m *Manager) DiscardRetired() {
	m.mu.Lock()
	m.retired = nil
	m.mu.Unlock()
}

// Epoch returns the current global epoch (for tests and introspection).
func (m *Manager) Epoch() uint64 { return m.global.Load() }

// Enters returns the total number of critical sections begun across all
// participants — the per-op epoch toll that batch operations amortize
// (one Enter covers a whole PutBatch/MultiGet).
func (m *Manager) Enters() int64 {
	m.mu.Lock()
	parts := m.parts
	m.mu.Unlock()
	var n int64
	for _, p := range parts {
		n += p.enters.Load()
	}
	return n
}

// Pending returns the number of retired-but-unreclaimed objects.
func (m *Manager) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.retired)
}

// Barrier advances epochs until every object retired before the call has
// been reclaimed. It must only be called while no participant is inside a
// critical section that could last forever (used at shutdown and in
// tests).
func (m *Manager) Barrier() {
	target := m.global.Load() + 2
	for m.global.Load() < target {
		m.Collect()
	}
	m.Collect()
}
