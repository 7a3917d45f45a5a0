package valuestore

import (
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/record"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// Global offsets pack (device index, store-local offset) into the 45-bit
// offset field of an HSIT forward pointer: [dev:6][localOff:39], allowing
// 64 devices of up to 512 GB of simulated value space each.
const (
	devShift     = 39
	localOffMask = (uint64(1) << devShift) - 1
)

// GlobalOff builds the HSIT-visible offset for a record.
func GlobalOff(devIdx int, localOff uint64) uint64 {
	if localOff > localOffMask {
		panic("valuestore: local offset overflows global encoding")
	}
	return uint64(devIdx)<<devShift | localOff
}

// SplitOff is the inverse of GlobalOff.
func SplitOff(global uint64) (devIdx int, localOff uint64) {
	return int(global >> devShift), global & localOffMask
}

// Manager aggregates one Store per SSD and implements the paper's
// idle-device selection: writers randomly pick a Value Storage with no
// in-flight requests to spread load across the SSD array (§5.2).
type Manager struct {
	Stores []*Store
	rr     atomic.Uint64
}

// NewManager creates one Store per device with the given chunk size.
func NewManager(devs []*ssd.Device, chunkSize int, em *epoch.Manager) *Manager {
	m := &Manager{}
	for _, d := range devs {
		m.Stores = append(m.Stores, NewStore(d, chunkSize, em))
	}
	return m
}

// PickIdle returns a randomly chosen idle store (no in-flight writes), or
// a round-robin fallback when every store is busy.
func (m *Manager) PickIdle(rng *sim.RNG) (int, *Store) {
	n := len(m.Stores)
	start := rng.Intn(n)
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		if m.Stores[idx].Dev.InFlight() == 0 {
			return idx, m.Stores[idx]
		}
	}
	idx := int(m.rr.Add(1)) % n
	return idx, m.Stores[idx]
}

// StoreOf resolves a global offset to its store and local offset.
func (m *Manager) StoreOf(global uint64) (*Store, uint64) {
	dev, local := SplitOff(global)
	return m.Stores[dev], local
}

// Holds reports whether a record of valueLen bytes at global offset would
// lie inside one chunk of one of the stores: what a forward pointer read
// off the media must satisfy before the other methods index by it.
func (m *Manager) Holds(global uint64, valueLen int) bool {
	dev, local := SplitOff(global)
	if dev >= len(m.Stores) {
		return false
	}
	s := m.Stores[dev]
	return local < uint64(s.nchunks*s.chunkSize) && int(local)%s.chunkSize+record.Size(valueLen) <= s.chunkSize
}

// Invalidate clears the validity bit for the record of valueLen bytes
// at global offset.
func (m *Manager) Invalidate(global uint64, valueLen int) bool {
	s, local := m.StoreOf(global)
	return s.Invalidate(local, valueLen)
}

// IsValid reports whether the record at global offset is up to date.
func (m *Manager) IsValid(global uint64) bool {
	s, local := m.StoreOf(global)
	return s.IsValid(local)
}

// Stats sums the per-store counters.
func (m *Manager) Stats() Stats {
	var t Stats
	for _, s := range m.Stores {
		st := s.Stats()
		t.ChunksWritten += st.ChunksWritten
		t.BytesWritten += st.BytesWritten
		t.UserBytes += st.UserBytes
		t.GCRuns += st.GCRuns
		t.GCLiveMoved += st.GCLiveMoved
		t.GCBytesMoved += st.GCBytesMoved
		t.FreeChunks += st.FreeChunks
		t.LiveChunks += st.LiveChunks
	}
	return t
}

// BeginRecovery clears all volatile chunk state before a post-crash
// rebuild (§5.5). The caller must be quiescent.
func (m *Manager) BeginRecovery() {
	for _, s := range m.Stores {
		s.mu.Lock()
		s.free = s.free[:0]
		s.mu.Unlock()
		for i := range s.chunks {
			s.chunks[i].reset()
			s.chunks[i].state.Store(chunkFree)
		}
	}
}

// MarkRecovered records that a reachable, well-coupled HSIT entry points
// at the record of valueLen bytes at global offset: the validity bit is
// set and the chunk revived.
func (m *Manager) MarkRecovered(global uint64, valueLen int) {
	s, local := m.StoreOf(global)
	ci := int(local) / s.chunkSize
	c := &s.chunks[ci]
	c.state.Store(chunkLive)
	c.setValid(int(local)%s.chunkSize, record.Size(valueLen))
	end := int32(int(local)%s.chunkSize + record.Size(valueLen))
	for {
		f := c.fill.Load()
		if end <= f || c.fill.CompareAndSwap(f, end) {
			break
		}
	}
}

// FinishRecovery rebuilds the free lists: every chunk with no live
// records becomes free again.
func (m *Manager) FinishRecovery() {
	for _, s := range m.Stores {
		s.mu.Lock()
		s.free = s.free[:0]
		for i := s.nchunks - 1; i >= 0; i-- {
			if s.chunks[i].state.Load() != chunkLive {
				s.chunks[i].state.Store(chunkFree)
				s.free = append(s.free, i)
			}
		}
		s.mu.Unlock()
	}
}
