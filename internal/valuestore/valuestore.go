// Package valuestore implements Value Storage (§5.1, §5.2): a
// log-structured store of values on flash SSD, organized as fixed-size
// chunks written with large asynchronous IO.
//
// Each chunk holds variable-size records:
//
//	[ backptr:8 ][ len:4 ][ magic:4 ][ value... pad to 16 ]
//
// backptr is the HSIT entry index (backward pointer). A DRAM validity
// bitmap per chunk — one bit per 16-byte unit, addressed by a record's
// chunk-local offset — tracks which records are up to date, so garbage
// collection and recovery never traverse the key index (§5.2). Bitmaps
// are volatile: they are rebuilt from HSIT during recovery (§5.5).
//
// Writes happen in chunk granularity to maximize SSD bandwidth;
// allocating a free chunk is the only critical section, after which the
// owning thread fills and submits its chunk independently (§5.2). Freed
// chunks are recycled only after an epoch-based grace period so stale
// readers are confined to reading stale-but-parseable bytes, which they
// detect by re-validating the HSIT pointer.
package valuestore

import (
	"encoding/binary"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/ssd"
)

const (
	// HeaderSize is the per-record metadata footprint (§5.1).
	HeaderSize  = 16
	recordAlign = 16
	recordMagic = 0x56535245 // "VSRE"

	// DefaultChunkSize is the paper's chunk size (512 KB).
	DefaultChunkSize = 512 << 10
)

// ErrNoFreeChunk is returned when chunk allocation fails; the caller
// should kick GC and retry.
var ErrNoFreeChunk = errors.New("valuestore: no free chunk")

// RecordSize returns the aligned chunk footprint of a value record.
func RecordSize(valueLen int) int {
	return (HeaderSize + valueLen + recordAlign - 1) / recordAlign * recordAlign
}

// EncodeRecord writes a record for (hsitIdx, value) into dst, which must
// have RecordSize(len(value)) bytes, and returns the record size.
func EncodeRecord(dst []byte, hsitIdx uint64, value []byte) int {
	n := RecordSize(len(value))
	binary.LittleEndian.PutUint64(dst[0:], hsitIdx)
	binary.LittleEndian.PutUint32(dst[8:], uint32(len(value)))
	binary.LittleEndian.PutUint32(dst[12:], recordMagic)
	copy(dst[HeaderSize:], value)
	for i := HeaderSize + len(value); i < n; i++ {
		dst[i] = 0
	}
	return n
}

// DecodeRecord parses a record at the start of src, returning the
// backward pointer and value. ok is false if src does not begin with a
// well-formed record.
func DecodeRecord(src []byte) (hsitIdx uint64, value []byte, ok bool) {
	if len(src) < HeaderSize {
		return 0, nil, false
	}
	if binary.LittleEndian.Uint32(src[12:]) != recordMagic {
		return 0, nil, false
	}
	vlen := int(binary.LittleEndian.Uint32(src[8:]))
	if HeaderSize+vlen > len(src) {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint64(src[0:]), src[HeaderSize : HeaderSize+vlen], true
}

// Chunk states.
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
	unit := localOff / recordAlign
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
	em        *epoch.Manager

	mu    sync.Mutex
	free  []int
	spare []*Writer // released writers, kept for their buffers

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
// chunks (DefaultChunkSize if 0).
func NewStore(dev *ssd.Device, chunkSize int, em *epoch.Manager) *Store {
	if chunkSize == 0 {
		chunkSize = DefaultChunkSize
	}
	if chunkSize%recordAlign != 0 {
		panic("valuestore: chunk size must be 16-byte aligned")
	}
	n := int(dev.Size() / int64(chunkSize))
	if n == 0 {
		panic("valuestore: device smaller than one chunk")
	}
	s := &Store{Dev: dev, chunkSize: chunkSize, nchunks: n, em: em}
	s.chunks = make([]chunkMeta, n)
	units := chunkSize / recordAlign
	for i := range s.chunks {
		s.chunks[i].valid = make([]atomic.Uint64, (units+63)/64)
	}
	s.free = make([]int, n)
	for i := range s.free {
		s.free[i] = n - 1 - i // pop from the end -> ascending allocation
	}
	return s
}

// ChunkSize returns the configured chunk size.
func (s *Store) ChunkSize() int { return s.chunkSize }

// Chunks returns the total chunk count.
func (s *Store) Chunks() int { return s.nchunks }

// FreeChunks returns the current number of free chunks.
func (s *Store) FreeChunks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.free)
}

// Utilization returns the fraction of chunks not free.
func (s *Store) Utilization() float64 {
	return 1 - float64(s.FreeChunks())/float64(s.nchunks)
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

// Invalidate clears the validity bit of the record of valueLen bytes at
// localOff (the value was superseded, deleted, or migrated). It reports
// whether the bit was set. An empty live chunk is reclaimed immediately.
func (s *Store) Invalidate(localOff uint64, valueLen int) bool {
	ci := int(localOff) / s.chunkSize
	c := &s.chunks[ci]
	cleared := c.clearValid(int(localOff)%s.chunkSize, RecordSize(valueLen))
	if cleared && c.live.Load() == 0 && c.state.CompareAndSwap(chunkLive, chunkVictim) {
		s.releaseChunk(ci)
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

// NewWriter allocates a free chunk and returns a writer for it. Only the
// garbage collector uses this unreserved form.
func (s *Store) NewWriter() (*Writer, error) { return s.NewWriterReserve(0) }

// NewWriterReserve allocates a chunk only while more than reserve free
// chunks would remain — the headroom GC needs to compact into. Ordinary
// write paths (PWB reclamation, scan rewrite) must pass a positive
// reserve or the store can wedge with zero free chunks and no way for GC
// to make progress.
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
func (w *Writer) Room(n int) bool { return w.fill+RecordSize(n) <= len(w.buf) }

// Len returns the number of records staged.
func (w *Writer) Len() int { return len(w.entries) }

// Add stages a record. It returns the record's store-local offset (what
// the HSIT forward pointer will hold, before the device tag) and false if
// the chunk is full.
func (w *Writer) Add(hsitIdx uint64, value []byte) (localOff uint64, ok bool) {
	if !w.Room(len(value)) {
		return 0, false
	}
	n := EncodeRecord(w.buf[w.fill:], hsitIdx, value)
	localOff = uint64(w.chunk*w.s.chunkSize + w.fill)
	w.entries = append(w.entries, Entry{LocalOff: localOff, HSITIdx: hsitIdx, ValueLen: len(value)})
	w.fill += n
	return localOff, true
}

// Entry describes one record committed by a Writer.
type Entry struct {
	LocalOff uint64
	HSITIdx  uint64
	ValueLen int
}

// Commit submits the chunk write at virtual time `at`, waits for the
// completion (returning its DoneTime), acknowledges it, marks every
// record valid, and seals the chunk. The caller then publishes the new
// locations in HSIT; records whose publication fails (the value was
// superseded mid-flight, §5.2) must be un-marked with Invalidate.
//
// Commit with zero staged records releases the chunk and returns at.
// The returned entries belong to the writer: they stay valid until
// Release.
func (w *Writer) Commit(at int64) (doneTime int64, entries []Entry) {
	if w.fill == 0 {
		w.s.releaseChunk(w.chunk)
		return at, nil
	}
	comps := w.s.Dev.Submit(at, []ssd.Request{{
		Op:     ssd.OpWrite,
		Offset: int64(w.chunk * w.s.chunkSize),
		Data:   w.buf[:w.fill],
	}})
	done := comps[0].DoneTime
	w.s.Dev.Ack(comps[0])

	c := &w.s.chunks[w.chunk]
	c.fill.Store(int32(w.fill))
	for _, e := range w.entries {
		c.setValid(int(e.LocalOff)%w.s.chunkSize, RecordSize(e.ValueLen))
	}
	c.state.Store(chunkLive)
	w.s.chunksWritten.Add(1)
	w.s.bytesWritten.Add(int64(w.fill))
	return done, w.entries
}

// Abort releases the writer's chunk without writing.
func (w *Writer) Abort() {
	w.s.releaseChunk(w.chunk)
}

// ReadAt builds the read request for a record at localOff with the given
// value length. The caller submits it (typically through the thread
// combining queue) and parses with DecodeRecord.
func (s *Store) ReadAt(localOff uint64, valueLen int) ssd.Request {
	return ssd.Request{
		Op:     ssd.OpRead,
		Offset: int64(localOff),
		Data:   make([]byte, HeaderSize+valueLen),
	}
}

// GC performs one garbage-collection pass (§5.2): it greedily selects up
// to maxVictims live chunks with the fewest live bytes, migrates their
// live records into fresh chunks, republishes their HSIT pointers via
// relocate, and recycles the victims. relocate must atomically swing
// HSIT[hsitIdx] from oldOff to newOff (PublishIf) and report success.
//
// Chunks that are still mostly live (>90% of their fill) are never chosen
// — compacting them writes nearly as much as it frees, the churn the
// greedy policy exists to avoid.
//
// It returns the number of chunks freed and the virtual completion time.
func (s *Store) GC(at int64, maxVictims int, relocate func(hsitIdx, oldOff, newOff uint64, valueLen int) bool) (freed int, done int64) {
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
	done = at
	// Only run when compaction nets at least one whole chunk; otherwise
	// GC would copy a partial chunk into another partial chunk forever.
	var gain int64
	for _, v := range cands {
		gain += int64(s.chunkSize) - v.live
	}
	if len(cands) == 0 || gain < int64(s.chunkSize) {
		return 0, done
	}
	s.gcRuns.Add(1)

	// Phase 1: claim the victims and gather their live records. Claimed
	// victims stay readable (their bitmaps and data are untouched) until
	// phase 3.
	type liveRec struct {
		hsitIdx  uint64
		localOff uint64
		val      []byte
	}
	var liveRecs []liveRec
	var claimed []int
	for _, v := range cands {
		c := &s.chunks[v.idx]
		if !c.state.CompareAndSwap(chunkLive, chunkVictim) {
			continue
		}
		claimed = append(claimed, v.idx)
		fill := int(c.fill.Load())
		buf := make([]byte, fill)
		comps := s.Dev.Submit(done, []ssd.Request{{Op: ssd.OpRead, Offset: int64(v.idx * s.chunkSize), Data: buf}})
		if comps[0].DoneTime > done {
			done = comps[0].DoneTime
		}
		for off := 0; off < fill; {
			hsitIdx, val, ok := DecodeRecord(buf[off:])
			if !ok {
				break
			}
			if c.isValid(off) {
				liveRecs = append(liveRecs, liveRec{
					hsitIdx:  hsitIdx,
					localOff: uint64(v.idx*s.chunkSize + off),
					val:      append([]byte(nil), val...),
				})
			}
			off += RecordSize(len(val))
		}
	}

	// Phase 2: pack every live record into as few output chunks as
	// possible (a chunk is committed only when full or at the very end),
	// then republish the locations.
	i := 0
	migrated := true
	for i < len(liveRecs) {
		w, err := s.NewWriter()
		if err != nil {
			// Out of chunks mid-GC: records from i on stay in their
			// victims, which therefore cannot be released.
			migrated = false
			break
		}
		var batch []liveRec
		for i < len(liveRecs) && w.Room(len(liveRecs[i].val)) {
			w.Add(liveRecs[i].hsitIdx, liveRecs[i].val)
			batch = append(batch, liveRecs[i])
			i++
		}
		cdone, entries := w.Commit(done)
		if cdone > done {
			done = cdone
		}
		for j, e := range entries {
			if relocate(e.HSITIdx, batch[j].localOff, e.LocalOff, e.ValueLen) {
				s.gcLiveMoved.Add(1)
				s.gcBytesMoved.Add(int64(e.ValueLen))
				// Clear the old record's bit so live accounting stays
				// truthful while the victim lingers.
				s.chunks[int(batch[j].localOff)/s.chunkSize].clearValid(int(batch[j].localOff)%s.chunkSize, RecordSize(e.ValueLen))
			} else {
				s.Invalidate(e.LocalOff, e.ValueLen)
			}
		}
		w.Release()
	}

	// Phase 3: recycle fully migrated victims; victims still holding
	// unmigrated live records return to service.
	for _, idx := range claimed {
		c := &s.chunks[idx]
		if migrated || c.live.Load() == 0 {
			s.releaseChunk(idx)
			freed++
		} else {
			c.state.Store(chunkLive)
		}
	}
	return freed, done
}

// DemoteChunk is the tiering counterpart of GC: it claims the next live
// chunk at or after cursor (wrapping), reads it, and relocates every
// still-valid record for which cold returns true into dest — the
// capacity tier. relocate must atomically swing the record's HSIT
// pointer from this store's old local offset to dest's new local offset
// (the caller composes the global offsets) and report success; failed
// relocations invalidate the fresh copy instead. Hot records stay in
// place, so a mostly-hot chunk just returns to service with holes where
// its cold records were. A chunk left empty is recycled.
//
// One chunk per call keeps the pass incremental — the maintenance tick
// paces demotion instead of a burst relocating the whole tier at once.
// Claiming via the same chunkLive -> chunkVictim CAS as GC makes the two
// passes mutually exclusive per chunk. Returns the cursor to resume
// from, the number of records moved, and the virtual completion time.
func (s *Store) DemoteChunk(at int64, cursor int, dest *Store, reserve int, cold func(hsitIdx uint64) bool, relocate func(hsitIdx, oldLocal, newLocal uint64, valueLen int) bool) (nextCursor, moved int, done int64) {
	done = at
	if cursor < 0 || cursor >= s.nchunks {
		cursor = 0
	}
	ci := -1
	var c *chunkMeta
	for i := 0; i < s.nchunks; i++ {
		j := (cursor + i) % s.nchunks
		cand := &s.chunks[j]
		if cand.state.Load() != chunkLive || cand.live.Load() == 0 {
			continue
		}
		if cand.state.CompareAndSwap(chunkLive, chunkVictim) {
			ci, c = j, cand
			break
		}
	}
	if ci < 0 {
		return cursor, 0, done
	}
	nextCursor = (ci + 1) % s.nchunks

	// Read the chunk and gather its valid, cold records. The claimed
	// chunk stays readable throughout (bitmap and data untouched until a
	// record actually moves).
	fill := int(c.fill.Load())
	buf := make([]byte, fill)
	comps := s.Dev.Submit(done, []ssd.Request{{Op: ssd.OpRead, Offset: int64(ci * s.chunkSize), Data: buf}})
	if comps[0].DoneTime > done {
		done = comps[0].DoneTime
	}
	type coldRec struct {
		hsitIdx  uint64
		localOff uint64
		val      []byte
	}
	var recs []coldRec
	for off := 0; off < fill; {
		hsitIdx, val, ok := DecodeRecord(buf[off:])
		if !ok {
			break
		}
		if c.isValid(off) && cold(hsitIdx) {
			recs = append(recs, coldRec{
				hsitIdx:  hsitIdx,
				localOff: uint64(ci*s.chunkSize + off),
				val:      append([]byte(nil), val...),
			})
		}
		off += RecordSize(len(val))
	}

	i := 0
	for i < len(recs) {
		w, err := dest.NewWriterReserve(reserve)
		if err != nil {
			break // capacity tier out of space: keep the rest hot-resident
		}
		var batch []coldRec
		for i < len(recs) && w.Room(len(recs[i].val)) {
			w.Add(recs[i].hsitIdx, recs[i].val)
			batch = append(batch, recs[i])
			i++
		}
		cdone, entries := w.Commit(done)
		if cdone > done {
			done = cdone
		}
		for j, e := range entries {
			if relocate(e.HSITIdx, batch[j].localOff, e.LocalOff, e.ValueLen) {
				moved++
				c.clearValid(int(batch[j].localOff)%s.chunkSize, RecordSize(e.ValueLen))
			} else {
				dest.Invalidate(e.LocalOff, e.ValueLen)
			}
		}
		w.Release()
	}

	if c.live.Load() == 0 {
		s.releaseChunk(ci)
	} else {
		c.state.Store(chunkLive)
	}
	return nextCursor, moved, done
}
