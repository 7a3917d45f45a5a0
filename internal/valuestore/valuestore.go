// Package valuestore implements Value Storage (§5.1, §5.2): a
// log-structured store of values on flash SSD, organized as fixed-size
// chunks written with large asynchronous IO.
//
// Each chunk holds variable-size records in package record's layout, the
// one the PWB shares; a record's backward pointer is its HSIT entry
// index. A DRAM validity bitmap per chunk — one bit per 16-byte unit,
// addressed by a record's chunk-local offset — tracks which records are
// up to date, so garbage collection and recovery never traverse the key
// index (§5.2). Bitmaps are volatile: they are rebuilt from HSIT during
// recovery (§5.5).
//
// Writes happen in chunk granularity to maximize SSD bandwidth;
// allocating a free chunk is the only critical section, after which the
// owning thread fills and submits its chunk independently (§5.2). A chunk
// with no valid record left is recycled at once, with no epoch grace
// period: a reader holding a stale location checks the validity bit
// before the IO and the record's backward pointer and length after it
// (see releaseChunk).
//
// Everything that moves values into a chunk — PWB reclamation, the
// recovery drain, GC, demotion, the scan-range rewrite — goes through
// WriteChunk: pack, one device write, settle each record against HSIT,
// and only then seal the chunk, so that no claimer (GC, DemoteChunk) can
// take a chunk whose records are still being published.
package valuestore

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/record"
	"repro/internal/sim"
	"repro/internal/ssd"
)

const (
	// HeaderSize is the per-record metadata footprint (§5.1): what a
	// record read adds to its value length.
	HeaderSize = record.HeaderSize

	// DefaultChunkSize is the paper's chunk size (512 KB).
	DefaultChunkSize = 512 << 10
)

// ErrNoFreeChunk is returned when chunk allocation fails; the caller
// should kick GC and retry.
var ErrNoFreeChunk = errors.New("valuestore: no free chunk")

// Chunk states. A chunk has one owner from the moment a writer takes it
// off the free list (chunkWriting) until that writer has settled every
// record and seals it (chunkLive); a claimer owns it again from
// chunkLive -> chunkVictim until it seals or recycles it. Only a
// chunkLive chunk is claimable.
const (
	chunkFree int32 = iota
	chunkWriting
	chunkLive
	chunkVictim
)

type chunkMeta struct {
	state     atomic.Int32
	valid     []atomic.Uint64 // bit per 16-byte unit, by chunk-local offset
	live      atomic.Int32    // number of valid records
	liveBytes atomic.Int64    // record bytes still valid (GC victim scoring)
	fill      atomic.Int32    // bytes of record data in the chunk
}

func (c *chunkMeta) bit(localOff int) (word *atomic.Uint64, mask uint64) {
	unit := localOff / record.Align
	return &c.valid[unit/64], 1 << (uint(unit) % 64)
}

func (c *chunkMeta) setValid(localOff, recSize int) {
	w, m := c.bit(localOff)
	if w.Load()&m == 0 {
		w.Or(m)
		c.live.Add(1)
		c.liveBytes.Add(int64(recSize))
	}
}

func (c *chunkMeta) clearValid(localOff, recSize int) bool {
	w, m := c.bit(localOff)
	for {
		old := w.Load()
		if old&m == 0 {
			return false
		}
		if w.CompareAndSwap(old, old&^m) {
			c.live.Add(-1)
			c.liveBytes.Add(-int64(recSize))
			return true
		}
	}
}

func (c *chunkMeta) isValid(localOff int) bool {
	w, m := c.bit(localOff)
	return w.Load()&m != 0
}

func (c *chunkMeta) reset() {
	for i := range c.valid {
		c.valid[i].Store(0)
	}
	c.live.Store(0)
	c.liveBytes.Store(0)
	c.fill.Store(0)
}

// Stats counts Value Storage activity for the evaluation harness.
type Stats struct {
	ChunksWritten int64
	BytesWritten  int64 // record bytes shipped to the SSD (incl. GC)
	UserBytes     int64 // user payload bytes first landed on this device
	GCRuns        int64
	GCLiveMoved   int64 // live values relocated by GC
	GCBytesMoved  int64 // payload bytes of those values
	FreeChunks    int
	LiveChunks    int
}

// Store is one Value Storage instance — one per SSD (§5.1).
type Store struct {
	Dev       *ssd.Device
	chunkSize int
	nchunks   int

	mu      sync.Mutex
	free    []int
	spare   []*Writer // released writers, kept for their buffers
	readBuf []byte    // the claimers' victim read buffer, between passes

	// writeMu admits one chunk write to the device at a time, submit to
	// ack. The device stages a write in a buffer it keeps for the next
	// one; with a single write in flight that is one buffer, allocated
	// by the first chunk, instead of one more whenever two writers
	// happen to overlap for the first time.
	writeMu sync.Mutex

	chunks []chunkMeta

	chunksWritten atomic.Int64
	bytesWritten  atomic.Int64
	userBytes     atomic.Int64
	gcRuns        atomic.Int64
	gcLiveMoved   atomic.Int64
	gcBytesMoved  atomic.Int64
}

// AttributeUserBytes credits n user payload bytes to this device — the
// per-device WAF denominator. The engine calls it when a user value
// first lands on the device (PWB reclamation or recovery drain
// publishing a record here). Relocations (GC, demotion, scan rewrite)
// deliberately do not re-attribute: their writes are amplification on
// the destination device, which a per-device WAF must show.
func (s *Store) AttributeUserBytes(n int64) { s.userBytes.Add(n) }

// UserBytes returns the cumulative user payload bytes attributed to
// this device.
func (s *Store) UserBytes() int64 { return s.userBytes.Load() }

// NewStore creates a store covering the whole device with chunkSize-byte
// chunks (DefaultChunkSize if 0). Chunks are recycled without an epoch
// grace period (see releaseChunk), so the manager goes unused.
func NewStore(dev *ssd.Device, chunkSize int, _ *epoch.Manager) *Store {
	if chunkSize == 0 {
		chunkSize = DefaultChunkSize
	}
	if chunkSize%record.Align != 0 {
		panic("valuestore: chunk size must be 16-byte aligned")
	}
	n := int(dev.Size() / int64(chunkSize))
	if n == 0 {
		panic("valuestore: device smaller than one chunk")
	}
	s := &Store{Dev: dev, chunkSize: chunkSize, nchunks: n}
	s.chunks = make([]chunkMeta, n)
	units := chunkSize / record.Align
	for i := range s.chunks {
		s.chunks[i].valid = make([]atomic.Uint64, (units+63)/64)
	}
	s.free = make([]int, n)
	for i := range s.free {
		s.free[i] = n - 1 - i // pop from the end -> ascending allocation
	}
	return s
}

// Chunks returns the total chunk count.
func (s *Store) Chunks() int { return s.nchunks }

// FreeChunks returns the current number of free chunks.
func (s *Store) FreeChunks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.free)
}

// releaseChunk returns a chunk to the free list immediately.
//
// Immediate recycling is safe without an epoch grace period because a
// reader holding a stale location cannot be fooled: (1) before issuing
// the IO it checks the validity bit, which a recycled chunk has cleared
// or repopulated for different offsets; (2) after the IO it validates the
// record's backward pointer and length against its HSIT entry. The only
// coincidence that passes both checks is the same key's record landing at
// the same offset with the same length — in which case the bytes read are
// that key's current committed value, which is a linearizable result for
// the read. (Deferring recycling by epochs is also correct but lets the
// free-chunk count lag reality by two epochs, which starves and
// over-drives GC under pressure.) Note the coincidence argument covers
// only the overlapping read itself: a reader that read the OLD bytes just
// before the recycle must not publish them anywhere later reads can see
// them, which is why SVC admission is guarded by the HSIT publish
// version, not by pointer-word equality.
func (s *Store) releaseChunk(idx int) {
	s.chunks[idx].reset()
	s.chunks[idx].state.Store(chunkFree)
	s.mu.Lock()
	s.free = append(s.free, idx)
	s.mu.Unlock()
}

// seal puts chunk idx (back) into service once its owner is done with it
// — a writer that has settled every record, a claimer finished with its
// victim — or recycles it when nothing in it is valid, and reports which.
func (s *Store) seal(idx int) (recycled bool) {
	s.chunks[idx].state.Store(chunkLive)
	return s.recycleIfEmpty(idx)
}

// recycleIfEmpty frees chunk idx if it is in service with no valid
// record. A chunk that empties while a writer or claimer still owns it is
// left alone: the owner's seal recycles it.
func (s *Store) recycleIfEmpty(idx int) bool {
	c := &s.chunks[idx]
	if c.live.Load() != 0 || !c.state.CompareAndSwap(chunkLive, chunkVictim) {
		return false
	}
	s.releaseChunk(idx)
	return true
}

// Invalidate clears the validity bit of the record of valueLen bytes at
// localOff (the value was superseded, deleted, or migrated). It reports
// whether the bit was set. An empty live chunk is reclaimed immediately.
func (s *Store) Invalidate(localOff uint64, valueLen int) bool {
	ci := int(localOff) / s.chunkSize
	cleared := s.chunks[ci].clearValid(int(localOff)%s.chunkSize, record.Size(valueLen))
	if cleared {
		s.recycleIfEmpty(ci)
	}
	return cleared
}

// IsValid reports whether the record at localOff is up to date.
func (s *Store) IsValid(localOff uint64) bool {
	return s.chunks[int(localOff)/s.chunkSize].isValid(int(localOff) % s.chunkSize)
}

// Stats returns a snapshot of store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	freeN := len(s.free)
	s.mu.Unlock()
	live := 0
	for i := range s.chunks {
		if s.chunks[i].state.Load() == chunkLive {
			live++
		}
	}
	return Stats{
		ChunksWritten: s.chunksWritten.Load(),
		BytesWritten:  s.bytesWritten.Load(),
		UserBytes:     s.userBytes.Load(),
		GCRuns:        s.gcRuns.Load(),
		GCLiveMoved:   s.gcLiveMoved.Load(),
		GCBytesMoved:  s.gcBytesMoved.Load(),
		FreeChunks:    freeN,
		LiveChunks:    live,
	}
}

// Writer fills one chunk in memory and ships it with a single large
// asynchronous write (§5.2). Writers are single-threaded; concurrent
// threads each own their writer/chunk.
type Writer struct {
	s       *Store
	chunk   int
	buf     []byte
	fill    int
	entries []Entry
}

// NewWriter allocates a free chunk and returns a writer for it, with no
// reserve held back: the form for a caller that fills chunks by hand (the
// benchmark's valuestore.write_chunk rung, tests).
func (s *Store) NewWriter() (*Writer, error) { return s.NewWriterReserve(0) }

// NewWriterReserve allocates a chunk only while more than reserve free
// chunks would remain — the headroom GC needs to compact into. Ordinary
// write paths (PWB reclamation, scan rewrite, demotion) must pass a
// positive reserve or the store can wedge with zero free chunks and no
// way for GC to make progress; GC itself and the recovery drain pass 0.
//
// A writer a previous owner Released comes back with its buffers; a new
// one is allocated only until the writers in use at once have all been
// through here.
func (s *Store) NewWriterReserve(reserve int) (*Writer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.free)
	if n <= reserve {
		return nil, ErrNoFreeChunk
	}
	idx := s.free[n-1]
	s.free = s.free[:n-1]
	s.chunks[idx].state.Store(chunkWriting)
	var w *Writer
	if k := len(s.spare); k > 0 {
		w, s.spare = s.spare[k-1], s.spare[:k-1]
	} else {
		w = &Writer{s: s, buf: make([]byte, s.chunkSize)}
	}
	w.chunk = idx
	return w, nil
}

// Release hands the writer's chunk buffer and entry slice back to the
// store for the next NewWriter, once its chunk is committed or aborted.
// The entries Commit returned alias that slice: the caller must be done
// with them, and with the writer. Release is optional — a writer that is
// simply dropped is garbage-collected — but a steady writer (the PWB
// reclaimer) that releases allocates nothing per chunk.
func (w *Writer) Release() {
	w.fill, w.entries = 0, w.entries[:0]
	w.s.mu.Lock()
	w.s.spare = append(w.s.spare, w)
	w.s.mu.Unlock()
}

// Room reports whether a value of n bytes fits in the remaining space.
func (w *Writer) Room(n int) bool { return w.fill+record.Size(n) <= len(w.buf) }

// Add stages a record. It returns the record's store-local offset (what
// the HSIT forward pointer will hold, before the device tag) and false if
// the chunk is full.
func (w *Writer) Add(hsitIdx uint64, value []byte) (localOff uint64, ok bool) {
	if !w.Room(len(value)) {
		return 0, false
	}
	localOff = uint64(w.chunk*w.s.chunkSize + w.fill)
	w.entries = append(w.entries, Entry{LocalOff: localOff, HSITIdx: hsitIdx, ValueLen: len(value)})
	w.fill += record.Encode(w.buf[w.fill:], hsitIdx, value)
	return localOff, true
}

// Entry describes one record committed by a Writer.
type Entry struct {
	LocalOff uint64
	HSITIdx  uint64
	ValueLen int
}

// write ships the staged records with one device write at virtual time
// at, acknowledges it, marks every record valid and returns the write's
// completion time. The chunk stays chunkWriting — readable, but not
// claimable — until its owner seals it.
func (w *Writer) write(at int64) (doneTime int64) {
	s := w.s
	s.writeMu.Lock()
	comp := s.Dev.Write(at, ssd.Request{
		Op:     ssd.OpWrite,
		Offset: int64(w.chunk * s.chunkSize),
		Data:   w.buf[:w.fill],
	})
	s.Dev.Ack(comp)
	s.writeMu.Unlock()

	c := &s.chunks[w.chunk]
	c.fill.Store(int32(w.fill))
	for _, e := range w.entries {
		c.setValid(int(e.LocalOff)%s.chunkSize, record.Size(e.ValueLen))
	}
	s.chunksWritten.Add(1)
	s.bytesWritten.Add(int64(w.fill))
	return comp.DoneTime
}

// Commit writes the chunk at virtual time `at` and seals it with every
// record valid, returning the write's completion time: the form for a
// caller with nothing to publish (the benchmark's write_chunk rung,
// tests). Whoever publishes the records in HSIT uses WriteChunk, which
// seals only after the last record is settled.
//
// Commit with zero staged records releases the chunk and returns at.
// The returned entries belong to the writer: they stay valid until
// Release.
func (w *Writer) Commit(at int64) (doneTime int64, entries []Entry) {
	if w.fill == 0 {
		w.s.releaseChunk(w.chunk)
		return at, nil
	}
	doneTime = w.write(at)
	w.s.seal(w.chunk)
	return doneTime, w.entries
}

// Abort releases the writer's chunk without writing.
func (w *Writer) Abort() {
	w.s.releaseChunk(w.chunk)
}

// Move is one value on its way into a fresh chunk: the HSIT entry it
// belongs to, its bytes (a view the caller keeps stable until WriteChunk
// returns), and Old, the caller's note of where the value is now — a PWB
// offset, a local or a global Value Storage offset; WriteChunk never
// looks at it.
type Move struct {
	HSITIdx uint64
	Old     uint64
	Value   []byte
}

// WriteChunk is the one relocation path (§5.2; DESIGN.md §4.12): it takes
// a free chunk (leaving reserve of them, see NewWriterReserve), packs the
// longest prefix of moves that fits — n of them, at least one — ships the
// chunk with a single device write at clk, advances clk to the write's
// completion, and then calls settle(i, e) for each packed record in
// order: e is where moves[i] now also lives, and settle conditionally
// swings the record's HSIT pointer there. A record whose settle returns
// false (the value was superseded mid-flight) has its fresh copy
// invalidated. Only after the last settle is the chunk sealed — or
// recycled, if nothing in it stayed valid — so GC and DemoteChunk, which
// claim sealed chunks only, can never read a chunk whose records HSIT
// does not point at yet and mistake them for garbage.
//
// ErrNoFreeChunk means nothing was written. The caller loops over what is
// left of moves, choosing a destination per chunk.
func (s *Store) WriteChunk(clk *sim.Clock, reserve int, moves []Move, settle func(i int, e Entry) bool) (n int, err error) {
	w, err := s.NewWriterReserve(reserve)
	if err != nil {
		return 0, err
	}
	for n < len(moves) && w.Room(len(moves[n].Value)) {
		w.Add(moves[n].HSITIdx, moves[n].Value)
		n++
	}
	clk.AdvanceTo(w.write(clk.Now()))
	for i, e := range w.entries {
		if !settle(i, e) {
			s.Invalidate(e.LocalOff, e.ValueLen)
		}
	}
	s.seal(w.chunk)
	w.Release()
	return n, nil
}

// ReadAt builds the read request for a record at localOff with the given
// value length. The caller submits it (typically through the thread
// combining queue) and checks with record.Coupled.
func (s *Store) ReadAt(localOff uint64, valueLen int) ssd.Request {
	return ssd.Request{
		Op:     ssd.OpRead,
		Offset: int64(localOff),
		Data:   make([]byte, HeaderSize+valueLen),
	}
}

// takeReadBuf hands a claimer the store's victim read buffer, n bytes
// long; putReadBuf returns it. Claimers running at once (GC beside
// demotion) each get a buffer and the last one back is kept.
func (s *Store) takeReadBuf(n int) []byte {
	s.mu.Lock()
	buf := s.readBuf
	s.readBuf = nil
	s.mu.Unlock()
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	return buf[:n]
}

func (s *Store) putReadBuf(buf []byte) {
	s.mu.Lock()
	s.readBuf = buf
	s.mu.Unlock()
}

// claim takes chunk idx out of service for a relocation pass: the
// chunkLive -> chunkVictim transition is the one GC and DemoteChunk
// compete on, and one a chunk whose writer is still settling records
// never offers. It reads the chunk at clk into buf (a chunk long) and
// appends to moves, as views of buf, the valid records keep admits (nil
// admits all). The victim stays readable — bitmap and data untouched —
// until its claimer seals it.
func (s *Store) claim(clk *sim.Clock, idx int, buf []byte, keep func(hsitIdx uint64) bool, moves []Move) ([]Move, bool) {
	c := &s.chunks[idx]
	if !c.state.CompareAndSwap(chunkLive, chunkVictim) {
		return moves, false
	}
	buf = buf[:c.fill.Load()]
	clk.AdvanceTo(s.Dev.Read(clk.Now(), []ssd.Request{{Op: ssd.OpRead, Offset: int64(idx * s.chunkSize), Data: buf}}))
	for off := 0; off < len(buf); {
		hsitIdx, val, ok := record.Decode(buf[off:])
		if !ok {
			break
		}
		if c.isValid(off) && (keep == nil || keep(hsitIdx)) {
			moves = append(moves, Move{HSITIdx: hsitIdx, Old: uint64(idx*s.chunkSize + off), Value: val})
		}
		off += record.Size(len(val))
	}
	return moves, true
}

// evacuate writes moves — records of victims the caller claimed in s —
// into chunks of dest. relocate must atomically swing HSIT[hsitIdx] from
// this store's oldOff to dest's newOff (PublishIf) and report success: a
// record that moved loses its bit here, so live accounting stays truthful
// while the victim lingers; one that did not keeps it, and its victim
// returns to service. When dest runs out of chunks the rest stay put. It
// returns the records moved and their payload bytes.
func (s *Store) evacuate(clk *sim.Clock, dest *Store, reserve int, moves []Move, relocate func(hsitIdx, oldOff, newOff uint64, valueLen int) bool) (moved int, bytes int64) {
	for len(moves) > 0 {
		n, err := dest.WriteChunk(clk, reserve, moves, func(i int, e Entry) bool {
			old := moves[i].Old
			if !relocate(e.HSITIdx, old, e.LocalOff, e.ValueLen) {
				return false
			}
			s.chunks[int(old)/s.chunkSize].clearValid(int(old)%s.chunkSize, record.Size(e.ValueLen))
			moved++
			bytes += int64(e.ValueLen)
			return true
		})
		if err != nil {
			break
		}
		moves = moves[n:]
	}
	return moved, bytes
}

// GC performs one garbage-collection pass (§5.2) on the caller's clock,
// which it advances through the victim reads and the chunk writes: it
// greedily selects up to maxVictims live chunks with the fewest live
// bytes, migrates their live records into as few fresh chunks as
// possible, republishes their HSIT pointers via relocate (see evacuate),
// and recycles the victims it emptied; a victim still holding a record —
// relocation refused, or no chunk left to move it into — returns to
// service.
//
// Chunks that are still mostly live (>90% of a chunk) are never chosen
// — compacting them writes nearly as much as it frees, the churn the
// greedy policy exists to avoid.
//
// It returns the number of chunks freed.
func (s *Store) GC(clk *sim.Clock, maxVictims int, relocate func(hsitIdx, oldOff, newOff uint64, valueLen int) bool) (freed int) {
	type victim struct {
		idx  int
		live int64
	}
	var cands []victim
	for i := range s.chunks {
		c := &s.chunks[i]
		if c.state.Load() != chunkLive {
			continue
		}
		// Collect only chunks whose live bytes are well below the chunk
		// capacity: compacting them reclaims real space. (Comparing
		// against capacity, not fill, matters — a short-filled but
		// fully-live chunk still wastes the rest of its chunk.)
		lb := c.liveBytes.Load()
		if lb*10 >= int64(s.chunkSize)*9 {
			continue
		}
		cands = append(cands, victim{i, lb})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].live < cands[b].live })
	if len(cands) > maxVictims {
		cands = cands[:maxVictims]
	}
	// Only run when compaction nets at least one whole chunk; otherwise
	// GC would copy a partial chunk into another partial chunk forever.
	var gain int64
	for _, v := range cands {
		gain += int64(s.chunkSize) - v.live
	}
	if len(cands) == 0 || gain < int64(s.chunkSize) {
		return 0
	}
	s.gcRuns.Add(1)

	buf := s.takeReadBuf(len(cands) * s.chunkSize)
	defer s.putReadBuf(buf)
	var moves []Move
	var claimed []int
	for i, v := range cands {
		var ok bool
		if moves, ok = s.claim(clk, v.idx, buf[i*s.chunkSize:], nil, moves); ok {
			claimed = append(claimed, v.idx)
		}
	}
	moved, bytes := s.evacuate(clk, s, 0, moves, relocate)
	s.gcLiveMoved.Add(int64(moved))
	s.gcBytesMoved.Add(bytes)
	for _, idx := range claimed {
		if s.seal(idx) {
			freed++
		}
	}
	return freed
}

// DemoteChunk is the tiering counterpart of GC, on the caller's clock
// likewise: it claims the next live chunk at or after cursor (wrapping),
// and relocates every still-valid record for which cold returns true into
// dest — the capacity tier — holding back reserve of its chunks.
// relocate is evacuate's: the caller composes the global offsets of the
// two stores. Hot records stay in place, so a mostly-hot chunk just
// returns to service with holes where its cold records were. A chunk left
// empty is recycled.
//
// One chunk per call keeps the pass incremental — the maintenance tick
// paces demotion instead of a burst relocating the whole tier at once.
// Returns the cursor to resume from, and the records moved and their
// payload bytes.
func (s *Store) DemoteChunk(clk *sim.Clock, cursor int, dest *Store, reserve int, cold func(hsitIdx uint64) bool, relocate func(hsitIdx, oldLocal, newLocal uint64, valueLen int) bool) (nextCursor, moved int, bytes int64) {
	if cursor < 0 || cursor >= s.nchunks {
		cursor = 0
	}
	buf := s.takeReadBuf(s.chunkSize)
	defer s.putReadBuf(buf)
	for i := 0; i < s.nchunks; i++ {
		ci := (cursor + i) % s.nchunks
		if s.chunks[ci].live.Load() == 0 {
			continue
		}
		if moves, ok := s.claim(clk, ci, buf, cold, nil); ok {
			moved, bytes = s.evacuate(clk, dest, reserve, moves, relocate)
			s.seal(ci)
			return (ci + 1) % s.nchunks, moved, bytes
		}
	}
	return cursor, 0, 0
}
