package core

import (
	"fmt"

	"repro/internal/hsit"
	"repro/internal/ssd"
	"repro/internal/valuestore"
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
//   - the HSIT entry holds a durable forward pointer (PWB or VS);
//   - the pointed-to record is well-coupled: its backward pointer names
//     the same HSIT entry and its length matches the pointer;
//   - a VS-resident record's validity bit is set;
//   - a published SVC handle resolves to a cache entry for that key
//     whose content matches the durable value.
//
// The store must be quiescent (no concurrent operations); background
// threads may be running but the keyspace must not change. Reads are
// uncharged (nil clocks): checking is free of virtual time.
func (s *Store) CheckInvariants() CheckReport {
	var rep CheckReport
	s.index.Scan(nil, nil, 0, func(key []byte, idx uint64) bool {
		rep.LiveKeys++
		p, h := s.table.Entry(nil, idx)
		switch p.Media {
		case hsit.None:
			rep.problem("key %q: HSIT[%d] has no durable value", key, idx)
		case hsit.PWB:
			rep.PWBResident++
			buf := s.pwbOf(p.Off)
			backptr, vlen, ok := buf.ReadHeader(nil, p.Off)
			if !ok {
				rep.problem("key %q: PWB record at %d unparseable", key, p.Off)
			} else if backptr != idx {
				rep.problem("key %q: ill-coupled PWB record (backptr %d != %d)", key, backptr, idx)
			} else if vlen != p.Len {
				rep.problem("key %q: PWB length mismatch (%d != %d)", key, vlen, p.Len)
			}
		case hsit.VS:
			rep.VSResident++
			devIdx, local := valuestore.SplitOff(p.Off)
			if devIdx >= len(s.vsm.Stores) {
				rep.problem("key %q: VS pointer names device %d of %d", key, devIdx, len(s.vsm.Stores))
				break
			}
			st := s.vsm.Stores[devIdx]
			if !st.IsValid(local) {
				rep.problem("key %q: VS record at %d has a clear validity bit", key, p.Off)
				break
			}
			req := st.ReadAt(local, p.Len)
			st.Dev.Submit(0, []ssd.Request{req})
			backptr, val, ok := valuestore.DecodeRecord(req.Data)
			if !ok {
				rep.problem("key %q: VS record at %d unparseable", key, p.Off)
			} else if backptr != idx {
				rep.problem("key %q: ill-coupled VS record (backptr %d != %d)", key, backptr, idx)
			} else if len(val) != p.Len {
				rep.problem("key %q: VS length mismatch (%d != %d)", key, len(val), p.Len)
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
			if v, _, ok := s.cache.Lookup(idx, h); !ok {
				rep.problem("key %q: published SVC handle %d does not resolve", key, h)
			} else if len(v) != p.Len && !p.IsNil() {
				rep.problem("key %q: cached value length %d != durable %d", key, len(v), p.Len)
			}
		}
		return true
	})
	if live := s.table.Live(); live < rep.LiveKeys {
		rep.problem("HSIT live count %d < reachable keys %d", live, rep.LiveKeys)
	}
	return rep
}
