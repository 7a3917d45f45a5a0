package core

import (
	"slices"
	"sync"

	"repro/internal/hsit"
	"repro/internal/pwb"
	"repro/internal/record"
	"repro/internal/svc"
	"repro/internal/valuestore"
)

// newKicks makes one kick channel per ring or device. A kick carries the
// virtual time its pass starts at; a channel queues two, as the reclaim
// triggers always have (see kick).
func newKicks(n int) []chan int64 {
	chs := make([]chan int64, n)
	for i := range chs {
		chs[i] = make(chan int64, 2)
	}
	return chs
}

// kick asks for a pass starting at virtual time at, without blocking: it
// is the only way a background pass is started. A kick that finds two
// queued is dropped: the passes they start, and the next probe, take up
// whatever made this one due.
func kick(ch chan int64, at int64) {
	select {
	case ch <- at:
	default:
	}
}

// passLoop is the goroutine of every background pass: per kick, advance
// the pass thread t to the kick's time, run pass on it, then advance the
// epoch twice. Two advances take a range a reclaim pass retired through
// epoch grace when no operation is pinned in an older epoch, and its
// grant then folds straight into the tail (see reclaimBuffer): the ring's
// owner may be asleep waiting for exactly that. Otherwise a later Collect
// lands it — any thread's 64th Exit, or the maintenance tick.
func (s *Store) passLoop(kicks chan int64, t *Thread, pass func(*Thread)) {
	defer s.bg.Done()
	for {
		select {
		case <-s.stop:
			return
		case at := <-kicks:
			t.Clk.AdvanceTo(at)
			pass(t)
			s.em.Collect()
			s.em.Collect()
		}
	}
}

// reclaimer is one ring's reclaim pass state. Whoever holds mu is the
// ring's single scan owner for the pass — the ring's passLoop goroutine
// on its pass thread, or under SyncVSWrites the ring's owner;
// tests that force a pass on a thread of their own take the same lock,
// which in production is uncontended. It guards the ring's reclaim
// cursor and the pass's scratch.
type reclaimer struct {
	mu        sync.Mutex
	buf       *pwb.Buffer
	live, hot []valuestore.Move
	grant     func(to uint64) // grantTo, bound once: a pass retires it without allocating
}

// grantTo hands the ring's space below to back after a pass's epoch
// grace, and folds it into the tail at once if no pass is in flight.
func (r *reclaimer) grantTo(to uint64) {
	r.buf.Grant(to)
	if r.mu.TryLock() { // no pass in flight: nothing to wait for
		r.buf.ApplyGrants()
		r.mu.Unlock()
	}
}

// reclaimBuffer migrates the well-coupled (live) values of one PWB into
// Value Storage (§5.2): scan the ring from the reclaim cursor, keep only
// records whose HSIT forward pointer still refers back to them, write
// them chunk by chunk to an idle Value Storage, republish their pointers,
// and release the ring space after epoch grace.
//
// Release protocol: each buffer has exactly one scan owner at a time (see
// reclaimer). Epoch grace turns a completed pass into a Grant, stamped
// with the pass's virtual end time; pending grants are folded into the
// tail only under the pass lock — here, before the scan, or by the grant
// itself when it lands with no pass in flight. The tail is therefore
// frozen while a scan is in flight, which closes two seed races: a
// foreground append can never recycle (and physically alias) bytes the
// scan is still reading, and PublishIf can never install a pointer that
// a newer append at the same wrapped DevOff now owns.
//
// A pass that releases nothing — nothing to scan, a torn header, no
// device with a free chunk — wakes the ring's owner on the way out: if
// it is asleep on a full ring it must look again and kick the next pass,
// which is also how its attempt count reaches the bound in untilApplied.
//
// The tail trails the scan by an epoch grace period plus one pass, so a
// pass starts at the ring's reclaim cursor, not at the tail: every
// record is scanned, and its HSIT entry checked, by exactly one
// successful pass. The values are views into the ring (stable until this
// pass's range is granted, which cannot happen before it returns), so
// the only copies are ring → chunk buffer → device.
//
// The pass reclaims ring t.id on t's clock and RNG: the ring's pass
// thread, or under SyncVSWrites the owner's (reclaimInline).
func (s *Store) reclaimBuffer(t *Thread) {
	r := &s.reclaimers[t.id]
	r.mu.Lock()
	defer r.mu.Unlock()
	b, clk := r.buf, t.Clk
	b.ApplyGrants()
	released, t0 := false, clk.Now()
	defer func() {
		s.stats.reclaimNS.Add(clk.Now() - t0)
		if !released && !b.AwaitingGrace() {
			b.Wake()
		}
	}()
	from, to := b.ScanRange()
	if to <= from {
		return
	}
	s.stats.reclaims.Add(1)
	// Adaptive-watermark feedback baseline: putStalls at pass start tells
	// whether a put hit a full ring while this pass ran.
	stalls0 := s.stats.putStalls.Load()

	live := r.live[:0]
	// The ring scan is one large sequential NVM read: charge it in bulk
	// (per-record latency would overstate a streaming read by ~300x).
	s.nvmDev.ChargeRead(clk, int(to-from))
	var scanned int64
	// Each record's HSIT check is a step of one overlap frame: the loads are
	// independent, so their latencies overlap and only the issue is serial.
	f := t.fork()
	err := b.Scan(nil, from, to, func(rec pwb.Record) bool {
		scanned++
		f.step()
		p := s.table.Load(t.Clk, rec.HSITIdx)
		f.land()
		// Well-coupled check (§5.2): forward and backward pointers refer
		// to each other. Ill-coupled records are superseded garbage and
		// are skipped — only the latest version reaches the SSD, which
		// is where the write-traffic reduction comes from.
		if p.Media == hsit.PWB && p.Off == rec.DevOff && p.Len == len(rec.Value) {
			live = append(live, valuestore.Move{HSITIdx: rec.HSITIdx, Old: rec.DevOff, Value: rec.Value})
		}
		return true
	})
	f.join()
	if cap(live) > cap(r.live) {
		// The scratch grew: take it at once to what a full ring of records
		// this size holds. How large a pass gets depends on how far the
		// writers ran ahead of this goroutine, and a scratch that grew a
		// step at a time reallocated ~100 KiB whenever timing produced a
		// new largest pass, long after the store had warmed up.
		live = slices.Grow(live, int(scanned*int64(b.Size())/int64(to-from))-len(live))
	}
	r.live = live[:0]
	s.stats.pwbScanned.Add(scanned)
	if err != nil {
		// A header was corrupt: unparseable, or its length ran past the
		// range. With the frozen-tail protocol this should be unreachable;
		// if it ever fires, abort the pass without migrating, moving the
		// cursor or releasing anything — the range is intact on NVM and a
		// later pass simply re-scans it.
		s.stats.scanTornRecords.Add(1)
		return
	}

	// When no device has space the remaining records stay in the PWB:
	// the cursor does not advance and a later pass, once GC has produced
	// space, scans the range again. Records this pass already republished
	// are by then ill-coupled ring garbage, so aborting midway is safe.
	if s.tiered() {
		// Classify at reclaim time (§4.3 meets PrismDB's placement rule):
		// hot values to the fastest device — migrated first, so they hit
		// the SSD soonest — cold values to the capacity device.
		hot, cold := r.hot[:0], live[:0]
		for _, rec := range live {
			if s.hotIdx(rec.HSITIdx) {
				hot = append(hot, rec)
			} else {
				cold = append(cold, rec)
			}
		}
		r.hot = hot[:0]
		if !s.migrate(t, hot, s.tierFast, true, s.gcReserve) || !s.migrate(t, cold, s.tierCap, false, s.gcReserve) {
			return
		}
	} else if !s.migrate(t, live, -1, false, s.gcReserve) {
		return
	}
	// Every live value of the range has been migrated, and everything
	// below it by earlier passes: the ring is garbage up to `to`. After
	// epoch grace (no reader can still be inside, §5.4) the space becomes
	// a grant, which the next pass folds into the tail.
	b.Scanned(to, clk.Now())
	released = true
	s.em.Retire(r.grant, to)
	// Close the controller loop (§4.7): a background pass that completed
	// without any put hitting a full ring means reclamation is keeping
	// pace — relax the trigger upward to recover batching efficiency. A
	// stall during the pass already decayed the trigger in
	// writeAndPublish, so don't also raise it here. Sync-mode passes run
	// inline on the putting thread (the put *is* the stall) and their
	// decay happens at the trigger crossing in maybeKickReclaim, so they
	// never adapt up.
	if !s.opt.SyncVSWrites && s.stats.putStalls.Load() == stalls0 {
		s.adaptWatermark(true)
	}
}

// reclaimInline is SyncVSWrites' reclaim pass: the ring's owner t runs it
// itself, from its own time and with its own device picks, and absorbs it.
// It runs on t's inline pass thread, not on t: the pass opens overlap
// frames, and t may be a step of one (an async window's put).
func (t *Thread) reclaimInline() {
	if t.inline == nil {
		t.inline = t.s.newThread(t.id, t.rng, nil, nil)
	}
	p := t.inline
	p.Clk.Reset(t.Clk.Now())
	t.s.reclaimBuffer(p)
	t.Clk.AdvanceTo(p.Clk.Now())
}

// settleHook is a test seam: when set, it runs at the top of every settle
// step (frame.swing) — after a chunk's device write, before the record's
// HSIT pointer swings to it — with the thread of the pass that settles, on
// that pass's goroutine; t.Clk is the step's clock.
var settleHook func(t *Thread)

// migrate writes recs — well-coupled PWB records, Old their ring offset,
// Value wherever the caller read them (the reclaimer passes views into
// the ring, recovery copies) — into Value Storage, one WriteChunk per
// chunk, and swings their HSIT pointers from the PWB to the new location
// (handing a read-recent value to the SVC as it goes, see handOff; never
// from recovery's drain, which runs with the filter cleared and the cache
// gone); it is the reclaimer's and recovery's one way out of the ring.
// target >= 0 pins the destination (tier steering, with hot the heat class
// being placed); -1 keeps the paper's idle-device selection. When the chosen
// store is out of chunks the records spill to any device with space
// (counted as fallback bytes — availability beats placement). reserve is
// how many free chunks a store keeps back: gcReserve for the reclaimer,
// or GC can wedge; nothing for recovery, which has to finish for the
// store to come back and runs with GC stopped. It returns false when no
// device has space, with recs partly migrated. It runs on t's clock, its
// swings steps of one frame, and picks devices with t's RNG.
func (s *Store) migrate(t *Thread, recs []valuestore.Move, target int, hot bool, reserve func(*valuestore.Store) int) bool {
	var devIdx int
	var st *valuestore.Store
	clk := t.Clk
	f := t.fork()
	defer f.join()
	settle := func(i int, e valuestore.Entry) bool {
		return f.swing(func() bool {
			if target >= 0 {
				steered := devIdx == target
				switch {
				case hot && steered:
					s.stats.tierHotSteered.Add(int64(e.ValueLen))
				case hot:
					s.stats.tierHotFallback.Add(int64(e.ValueLen))
				case steered:
					s.stats.tierColdSteered.Add(int64(e.ValueLen))
				default:
					s.stats.tierColdFallback.Add(int64(e.ValueLen))
				}
			}
			old := hsit.Pointer{Media: hsit.PWB, Len: e.ValueLen, Off: recs[i].Old}
			newp := hsit.Pointer{Media: hsit.VS, Len: e.ValueLen, Off: valuestore.GlobalOff(devIdx, e.LocalOff)}
			ver, ok := s.table.PublishIf(t.Clk, e.HSITIdx, old, newp)
			if !ok {
				// A foreground write superseded this value mid-flight.
				s.stats.reclaimPublishLost.Add(1)
				return false
			}
			s.stats.pwbLiveMigrated.Add(1)
			// First landing of this user value on an SSD: credit the
			// per-device WAF denominator.
			st.AttributeUserBytes(int64(e.ValueLen))
			s.handOff(t.Clk, e.HSITIdx, ver, recs[i].Value)
			return true
		})
	}
	for len(recs) > 0 {
		devIdx = target
		if target < 0 {
			devIdx, _ = s.vsm.PickIdle(t.rng)
		}
		// The chosen store first; when it is out of chunks, try every
		// store in turn. Each store tried is kicked if it is due for GC.
		for next := 0; ; next++ {
			st = s.vsm.Stores[devIdx]
			n, err := st.WriteChunk(clk, reserve(st), recs, settle)
			s.maybeKickGC(devIdx, clk.Now())
			if err == nil {
				recs = recs[n:]
				break
			}
			if next == len(s.vsm.Stores) {
				return false
			}
			devIdx = next
		}
	}
	return true
}

// gcReserve is the number of free chunks held back for GC to compact
// into (log-structured reserve).
func (s *Store) gcReserve(st *valuestore.Store) int {
	r := st.Chunks() / 16
	if r < 2 {
		r = 2
	}
	return r
}

// gcDue is the one GC test: a store is due once its free fraction drops
// below Options.GCFreeFraction.
func (s *Store) gcDue(st *valuestore.Store) bool {
	return float64(st.FreeChunks())/float64(st.Chunks()) < s.opt.GCFreeFraction
}

// maybeKickGC kicks device dev's GC at now if the device is due.
func (s *Store) maybeKickGC(dev int, now int64) {
	if s.gcDue(s.vsm.Stores[dev]) {
		kick(s.gcChs[dev], now)
	}
}

// gcPass is Value Storage garbage collection (§5.2) of device t.id, one
// pass thread and one passLoop per device: while the device is due,
// greedily collect the chunks with the fewest live values, as long as a
// pass nets a chunk.
func (s *Store) gcPass(t *Thread) {
	for s.gcDue(s.vsm.Stores[t.id]) && s.collect(t, t.id) {
	}
}

// collect runs one GC pass over device dev on t and reports whether it
// made net progress: freed counts victims, but a pass also consumes
// output chunks.
func (s *Store) collect(t *Thread, dev int) bool {
	st := s.vsm.Stores[dev]
	before := st.FreeChunks()
	f := t.fork()
	freed := st.GC(t.Clk, 4, s.relocate(&f, dev, dev))
	f.join()
	s.em.Collect()
	return freed > 0 && st.FreeChunks() > before
}

// relocate is GC's and demotion's settle, a swing of f, the frame their
// pass opened on its thread: it swings idx's HSIT pointer from record
// oldLocal of device from to newLocal of device to.
func (s *Store) relocate(f *frame, from, to int) func(idx, oldLocal, newLocal uint64, vlen int) bool {
	return func(idx, oldLocal, newLocal uint64, vlen int) bool {
		return f.swing(func() bool {
			_, ok := s.table.PublishIf(f.t.Clk, idx,
				hsit.Pointer{Media: hsit.VS, Len: vlen, Off: valuestore.GlobalOff(from, oldLocal)},
				hsit.Pointer{Media: hsit.VS, Len: vlen, Off: valuestore.GlobalOff(to, newLocal)})
			return ok
		})
	}
}

// onScanEvict is the SVC rewrite hook (§4.4 steps 5-6): when a chained
// (scanned) entry is evicted, the resident chain — in key order as the
// scan linked it — is written into a single fresh Value Storage chunk,
// restoring spatial locality for the key range. It runs on t, the
// cache's rewrite thread, on the cache manager goroutine; no request
// hands it a time, so it starts at the NVM channel's present.
func (s *Store) onScanEvict(t *Thread, chain svc.EvictedChain) {
	clk := t.Clk
	clk.AdvanceTo(s.nvmDev.Now())

	// todo[i] is a value to rewrite — Old its global offset — and vers[i]
	// the publish version its cached bytes were admitted under.
	var todo []valuestore.Move
	var vers []uint64
	for _, e := range chain.Entries {
		// Only values still resident in Value Storage with unchanged
		// content participate; anything updated meanwhile is skipped.
		// Currency is judged by the publish version under which the
		// cached bytes were admitted — a length/media check alone would
		// stage stale bytes when a same-length overwrite reused the
		// offset (chunks are recycled without epoch grace).
		if s.table.Version(e.HSITIdx) != e.Ver {
			continue
		}
		p := s.table.Load(clk, e.HSITIdx)
		if p.Media == hsit.VS && p.Len == len(e.Value) {
			todo = append(todo, valuestore.Move{HSITIdx: e.HSITIdx, Old: p.Off, Value: e.Value})
			vers = append(vers, e.Ver)
		}
	}
	if len(todo) < 2 {
		return
	}
	// Skip ranges that already sit contiguously on the SSD: rewriting
	// them gains no locality, and the relocation churn would invalidate
	// in-flight scans of the same range. (The paper rewrites to *create*
	// spatial locality; once created, the range stays put.)
	adjacent := 0
	for i := 1; i < len(todo); i++ {
		prev, cur := todo[i-1], todo[i]
		gap := int64(cur.Old) - int64(prev.Old) - int64(record.Size(len(prev.Value)))
		if gap >= 0 && gap <= mergeGap {
			adjacent++
		}
	}
	if adjacent*10 >= (len(todo)-1)*7 {
		return
	}
	// Pace reorganization: at simulation scale the SVC cycles its whole
	// capacity in milliseconds, so unthrottled eviction-time rewrites
	// would relocate hot ranges out from under the scans they are meant
	// to help. One rewrite per couple of virtual milliseconds matches the
	// paper's effective rate (its 20 GB cache evicts a range rarely).
	if clk.Now()-s.lastRewrite < 2_000_000 {
		return
	}
	s.lastRewrite = clk.Now()

	devIdx, st := s.vsm.PickIdle(t.rng)
	f := t.fork()
	defer f.join()
	for wrote := false; len(todo) > 0; wrote = true {
		n, err := st.WriteChunk(clk, s.gcReserve(st), todo, func(i int, e valuestore.Entry) bool {
			return f.swing(func() bool {
				newp := hsit.Pointer{Media: hsit.VS, Len: e.ValueLen, Off: valuestore.GlobalOff(devIdx, e.LocalOff)}
				// Version-conditioned publish: the old offset may have been
				// recycled since staging, so a pointer-word compare could
				// alias (ABA) and clobber a newer value. The version cannot.
				if !s.table.PublishIfVersion(t.Clk, e.HSITIdx, vers[i], newp) {
					return false
				}
				s.vsm.Invalidate(todo[i].Old, e.ValueLen)
				return true
			})
		})
		if err != nil {
			if !wrote {
				return // no space: skip the rewrite, correctness unaffected
			}
			break
		}
		todo, vers = todo[n:], vers[n:]
	}
	s.stats.scanRewrites.Add(1)
	s.maybeKickGC(devIdx, clk.Now())
}
