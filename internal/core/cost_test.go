package core

import (
	"bytes"
	"testing"

	"repro/internal/hsit"
	"repro/internal/nvm"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/valuestore"
)

// costModel is what an operation's steps cost on an idle store, derived
// from the device configurations: every timing pin in this package
// (TestPutCostIsLookupAppendPublish, TestSingleGetTiming,
// TestWindowOverlapsMixedOps) is a sum of its methods, so a recalibration
// of a device constant needs no edit here and a change of the cost model
// itself edits this one helper.
type costModel struct {
	s     *Store
	nvm   nvm.Config
	ssd   ssd.Config
	quiet int64 // where the next lookup is measured
}

// costsOf is the cost model of s for a test whose clocks are at now, far
// past the load: lookups are measured 2^25 ns before that — inside the NVM
// channel's horizon, in buckets nothing else has drawn on.
func costsOf(s *Store, now int64) *costModel {
	return &costModel{s: s, nvm: s.NVM().Config(), ssd: s.SSDs()[0].Config(), quiet: now - 1<<25}
}

// lookup is what the key index charges to find key. It depends on the
// nodes the traversal visits, so it is measured: on a scratch clock, each
// measurement in a bucket of the channel's calendar of its own.
func (c *costModel) lookup(key []byte) int64 {
	at := c.quiet
	c.quiet += 4 << 10
	clk := sim.NewClock(at)
	c.s.index.Lookup(clk, key)
	return clk.Now() - at
}

// read is one NVM read of n bytes; an HSIT entry is one of 16.
func (c *costModel) read(n int) int64 {
	return c.nvm.ReadLatency + sim.TransferNS(n, c.nvm.ReadBandwidth)
}
func (c *costModel) entry() int64 { return c.read(hsit.EntrySize) }

// cas is an 8-byte atomic store or CAS; store a cached store of n bytes;
// persist the flush of that many dirty lines plus the fence.
func (c *costModel) cas() int64 { return c.nvm.WriteLatency + sim.TransferNS(8, c.nvm.WriteBandwidth) }
func (c *costModel) store(n int) int64 {
	return c.nvm.WriteLatency + sim.TransferNS(n, nvm.CacheFillBandwidth)
}
func (c *costModel) persist(lines int) int64 {
	return int64(1+lines)*c.nvm.FlushLatency + sim.TransferNS(lines*nvm.LineSize, c.nvm.WriteBandwidth) + c.nvm.FenceLatency
}

// appendRec is pwb.Buffer.Append of an n-byte value at device offset off:
// header store, value store, persist of the lines the record covers.
func (c *costModel) appendRec(off uint64, n int) int64 {
	const header = 16
	lines := int((off+header+uint64(n)-1)/nvm.LineSize - off/nvm.LineSize + 1)
	return c.store(header) + c.store(n) + c.persist(lines)
}

// publish is the dirty-bit install of an entry whose line is already
// there: CAS, persist, CAS.
func (c *costModel) publish() int64 { return c.cas() + c.persist(1) + c.cas() }

// put is an update of a key whose record landed at off: lookup, append,
// publish — the entry's read is issued after the lookup and is back before
// the append is done. A key with no cached copy: nothing to unpublish.
func (c *costModel) put(lookup int64, off uint64, n int) int64 {
	return lookup + c.appendRec(off, n) + c.publish()
}

// pwbGet is a read served from the PWB; vsGet one served from Value
// Storage on an idle device, admitted to the SVC with one CAS.
func (c *costModel) pwbGet(lookup int64, n int) int64 { return lookup + c.entry() + c.read(n) }
func (c *costModel) vsGet(lookup int64, n int) int64 {
	return lookup + c.entry() + c.ssd.ReadLatency + sim.TransferNS(valuestore.HeaderSize+n, c.ssd.ReadBandwidth) + c.cas()
}

// pwbOff is the device offset of key's record in the PWB.
func pwbOff(t *testing.T, s *Store, key []byte) uint64 {
	t.Helper()
	idx, ok := s.index.Lookup(nil, key)
	p := s.table.Load(nil, idx)
	if !ok || p.Media != hsit.PWB {
		t.Fatalf("key %q: found %v, at %v, want a PWB record", key, ok, p)
	}
	return p.Off
}

// svcHandle is idx's SVC handle, read for free.
func svcHandle(s *Store, idx uint64) uint64 {
	_, h := s.table.Entry(nil, idx)
	return h
}

// TestPutCostIsLookupAppendPublish: an operation pays NVM read latency for
// its HSIT entry once (DESIGN.md §3.5). On a quiet store, with the clock
// past every reservation, an update put advances the clock by exactly
// lookup + append + CAS + persist + CAS — the read of the word it CASes
// was issued when the lookup returned and is hidden behind the append, and
// the SVC word comes with the line the CAS owns — and a get served from the
// PWB by exactly lookup + one entry read + the value read.
func TestPutCostIsLookupAppendPublish(t *testing.T) {
	s, th := residentStore(t, 16)
	c := costsOf(s, th.Clk.Now())
	k, v := aKey(5), kib(99)
	lookup := c.lookup(k)

	t0, loads := th.Clk.Now(), s.NVM().Stats().Loads
	if err := th.Put(k, v); err != nil {
		t.Fatal(err)
	}
	put, putLoads := th.Clk.Now()-t0, s.NVM().Stats().Loads-loads
	off := pwbOff(t, s, k)
	t.Logf("put: %d ns = lookup %d + append %d + publish %d (CAS %d, persist %d, CAS %d)",
		put, lookup, c.appendRec(off, len(v)), c.publish(), c.cas(), c.persist(1), c.cas())
	if want := c.put(lookup, off, len(v)); put != want {
		t.Errorf("an update put advanced the clock %d ns, want %d", put, want)
	}

	t0, loads = th.Clk.Now(), s.NVM().Stats().Loads
	got, err := th.Get(k)
	if err != nil || !bytes.Equal(got, v) {
		t.Fatalf("Get: %d bytes, %v", len(got), err)
	}
	get, getLoads := th.Clk.Now()-t0, s.NVM().Stats().Loads-loads
	t.Logf("PWB get: %d ns = lookup %d + entry read %d + value read %d", get, lookup, c.entry(), c.read(len(v)))
	if want := c.pwbGet(lookup, len(v)); get != want {
		t.Errorf("a PWB get advanced the clock %d ns, want %d", get, want)
	}

	// nvm.loads: the put's prefetch; the get's entry, its value and the
	// uncharged pointer recheck after the value read.
	if putLoads != 1 || getLoads != 3 {
		t.Errorf("%d NVM loads for the put and %d for the get, want 1 and 3", putLoads, getLoads)
	}
}
