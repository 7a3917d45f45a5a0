package core

import (
	"fmt"

	"repro/internal/hsit"
	"repro/internal/pwb"
	"repro/internal/record"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// CheckReport is the result of a CheckInvariants pass.
type CheckReport struct {
	LiveKeys        int
	PWBResident     int
	VSResident      int
	SVCPublished    int
	Problems        []string
	ProblemsOmitted int
}

func (r *CheckReport) problem(format string, args ...any) {
	if len(r.Problems) >= 32 {
		r.ProblemsOmitted++
		return
	}
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// OK reports whether no invariant violations were found.
func (r *CheckReport) OK() bool { return len(r.Problems) == 0 && r.ProblemsOmitted == 0 }

// CheckInvariants is the offline consistency checker (an fsck for the
// cross-media structures). It walks the Persistent Key Index and
// verifies, for every live key, the §4.5/§5.5 invariants:
//
//   - the HSIT entry holds a durable forward pointer (PWB or VS) to a
//     place inside its medium;
//   - the pointed-to record is well-coupled (record.Coupled): its
//     backward pointer names the same HSIT entry and its length matches
//     the pointer;
//   - a VS-resident record's validity bit is set;
//   - a published SVC handle resolves to a cache entry for that key
//     whose length matches the durable value's.
//
// The store must be quiescent (no concurrent operations); background
// threads may be running but the keyspace must not change. Reads are
// uncharged (nil clocks): checking is free of virtual time, and it
// touches no cache entry, so no check promotes what it looks at. The
// walk runs inside an epoch on the maintenance thread, as every reader
// of the cache does.
func (s *Store) CheckInvariants() CheckReport {
	var rep CheckReport
	s.mntMu.Lock()
	defer s.mntMu.Unlock()
	s.mnt.part.Enter()
	defer s.mnt.part.Exit()
	s.index.Scan(nil, nil, 0, func(key []byte, idx uint64) bool {
		rep.LiveKeys++
		p, h := s.table.Load(nil, idx), s.table.SVC(nil, idx)
		switch {
		case p.IsNil():
			rep.problem("key %q: HSIT[%d] has no durable value", key, idx)
		case !s.inMedium(p):
			rep.problem("key %q: forward pointer %v lies outside its medium", key, p)
		case p.Media == hsit.PWB:
			rep.PWBResident++
			if _, err := s.readPWB(nil, idx, p); err != nil {
				rep.problem("key %q: PWB record at %d %v", key, p.Off, err)
			}
		default:
			rep.VSResident++
			st, local := s.vsm.StoreOf(p.Off)
			if !st.IsValid(local) {
				rep.problem("key %q: VS record at %d has a clear validity bit", key, p.Off)
				break
			}
			req := st.ReadAt(local, p.Len)
			st.Dev.Read(0, []ssd.Request{req})
			if _, err := record.Coupled(req.Data, idx, p.Len); err != nil {
				rep.problem("key %q: VS record at %d %v", key, p.Off, err)
			}
		}
		// SVC publication, if any, must resolve and agree with the
		// durable value.
		if s.cache != nil && h != 0 {
			rep.SVCPublished++
			// Ver may legitimately lag the publish version here (a GC
			// or scan rewrite relocates values without touching the
			// cache, and the read-side retraction only fires on
			// access), so only resolution and length are checked.
			if n, ok := s.cache.Resident(idx, h); !ok {
				rep.problem("key %q: published SVC handle %d does not resolve", key, h)
			} else if n != p.Len && !p.IsNil() {
				rep.problem("key %q: cached value length %d != durable %d", key, n, p.Len)
			}
		}
		return true
	})
	if live := s.table.Live(); live < rep.LiveKeys {
		rep.problem("HSIT live count %d < reachable keys %d", live, rep.LiveKeys)
	}
	return rep
}

// inMedium checks forward pointer p against its medium before anything
// reads through it, so that a corrupt pointer is a problem to report, not
// an index out of range: it reports whether p's record lies inside one PWB
// ring, or inside one chunk of one of the Value Storage stores.
func (s *Store) inMedium(p hsit.Pointer) bool {
	return p.Media == hsit.PWB && s.pwbOf(p) != nil || p.Media == hsit.VS && s.vsm.Holds(p.Off, p.Len)
}

// pwbOf maps PWB forward pointer p to the ring its record lies inside,
// nil when it lies inside none.
func (s *Store) pwbOf(p hsit.Pointer) *pwb.Buffer {
	rel, per := p.Off-uint64(s.pwbBase), uint64(s.opt.PWBBytesPerThread)
	if p.Off < uint64(s.pwbBase) || rel/per >= uint64(len(s.pwbs)) || rel%per+uint64(record.Size(p.Len)) > per {
		return nil
	}
	return s.pwbs[rel/per]
}

// readPWB reads the PWB record p names on clk — its header, then, once
// record.Coupled finds it coupled to HSIT entry idx, its value — and
// returns the value or the check that failed. p must be inMedium.
func (s *Store) readPWB(clk *sim.Clock, idx uint64, p hsit.Pointer) ([]byte, error) {
	buf := make([]byte, record.HeaderSize+p.Len)
	s.nvmDev.Load(clk, int(p.Off), buf[:record.HeaderSize])
	v, err := record.Coupled(buf, idx, p.Len)
	if err == nil {
		s.nvmDev.Load(clk, int(p.Off)+record.HeaderSize, v)
	}
	return v, err
}
