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
// (TestPutCostIsLookupAppendPublish, TestSVCHitWaitsForNoNVM,
// TestSingleGetTiming, TestWindowOverlapsMixedOps) is a sum of its
// methods, so a recalibration of a device constant needs no edit here and
// a change of the cost model itself edits this one helper.
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

// read is one NVM read of n bytes; an HSIT entry's forward pointer is one
// of hsit.EntrySize. dram is one DRAM word access: the load or CAS of an
// entry's SVC handle.
func (c *costModel) read(n int) int64 {
	return c.nvm.ReadLatency + sim.TransferNS(n, c.nvm.ReadBandwidth)
}
func (c *costModel) entry() int64 { return c.read(hsit.EntrySize) }
func (c *costModel) dram() int64  { return sim.DRAMLatency }

// write is an n-byte store through the channel, cas the 8-byte atomic
// store or CAS; store a cached store of n bytes; persist the flush of that
// many dirty lines plus the fence.
func (c *costModel) write(n int) int64 {
	return c.nvm.WriteLatency + sim.TransferNS(n, c.nvm.WriteBandwidth)
}
func (c *costModel) cas() int64 { return c.write(8) }
func (c *costModel) store(n int) int64 {
	return c.nvm.WriteLatency + sim.TransferNS(n, nvm.CacheFillBandwidth)
}
func (c *costModel) persist(lines int) int64 {
	return int64(1+lines)*c.nvm.FlushLatency + sim.TransferNS(lines*nvm.LineSize, c.nvm.WriteBandwidth) + c.nvm.FenceLatency
}

// body and seal are pwb.Buffer.AppendSplit of an n-byte value at device
// offset off. The body is the value's store and the writeback of the
// record's lines after the header's; the seal is the header's store and
// the persist of its line, which pays the flush's own latency. Together
// they are the unsplit Append.
func (c *costModel) body(off uint64, n int) int64 {
	const header = 16
	after := int((off+header+uint64(n)-1)/nvm.LineSize - off/nvm.LineSize)
	return c.store(n) + int64(after)*c.nvm.FlushLatency + sim.TransferNS(after*nvm.LineSize, c.nvm.WriteBandwidth)
}
func (c *costModel) seal() int64                       { return c.store(16) + c.persist(1) }
func (c *costModel) appendRec(off uint64, n int) int64 { return c.body(off, n) + c.seal() }

// alloc is an HSIT entry's allocation: the pointer's store and its
// persist; the handle's DRAM store is free.
func (c *costModel) alloc() int64 { return c.cas() + c.persist(1) }

// publish is the dirty-bit install of an entry whose line is already
// there: CAS, persist, CAS.
func (c *costModel) publish() int64 { return c.cas() + c.persist(1) + c.cas() }

// put is a put of an n-byte value whose record landed at off, from its
// room's reservation to its publish (DESIGN.md §3.5). Two branches run from
// the put's start: find is the key index lookup, and an insert's Alloc
// after it; the other is the record's body. The seal starts when both have
// ended, and the publish waits for the seal and for the read of the word
// it CASes, issued when find ended. A key with no cached copy: nothing to
// unpublish. An insert then pays its key index insert on top.
func (c *costModel) put(find int64, off uint64, n int) int64 {
	return max(max(find, c.body(off, n))+c.seal(), find+c.read(8)) + c.publish()
}

// svcGet is a read the SVC serves: the handle's DRAM load and the value's
// copy, the forward pointer's read issued and never waited for. miss is
// what a read the SVC misses pays for the entry: the pointer's read, the
// handle's load hidden behind it. pwbGet is a read served from the PWB;
// vsGet one served from Value Storage on an idle device, admitted to the
// SVC with one DRAM CAS.
func (c *costModel) svcGet(lookup int64, n int) int64 { return lookup + c.dram() + dramCost(n) }
func (c *costModel) miss() int64                      { return max(c.entry(), c.dram()) }
func (c *costModel) pwbGet(lookup int64, n int) int64 { return lookup + c.miss() + c.read(n) }
func (c *costModel) vsGet(lookup int64, n int) int64 {
	return lookup + c.miss() + c.ssd.ReadLatency + sim.TransferNS(valuestore.HeaderSize+n, c.ssd.ReadBandwidth) + c.dram()
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

// TestPutCostIsLookupAppendPublish: a put's record body needs nothing its
// key index lookup finds, so the two overlap (DESIGN.md §3.5). On a quiet
// store, with the clock past every reservation, a put advances the clock by
// exactly max(lookup, body) + seal + publish: CAS, persist, CAS — the read
// of the word it CASes was issued when the lookup returned and is back
// before the seal is done, and the SVC handle is a DRAM word read for
// free — unless the read outlasts the seal. Three puts pin it: a 1 KiB
// update, whose body is the longer branch; an 8-byte update, whose lookup
// is, so the entry's read is what the publish waits for; and a 1 KiB
// insert, whose Alloc is on the lookup's branch and hidden behind the body.
// A get served from the PWB costs exactly lookup + one entry read, the SVC
// handle's DRAM load hidden behind it, + the value read.
func TestPutCostIsLookupAppendPublish(t *testing.T) {
	s, th := residentStore(t, 16)
	c := costsOf(s, th.Clk.Now())
	for _, tc := range []struct {
		name       string
		k, v       []byte
		insert     bool
		bodyLonger bool
		pin        int64 // the row's cost in ns, where it is pinned as a number too
	}{
		{"1 KiB update", aKey(5), kib(99), false, true, 0},
		{"8-byte update", aKey(6), []byte("8 bytes!"), false, false, 0},
		{"1 KiB insert", aKey(100), kib(100), true, true, 2354},
	} {
		lookup, space := c.lookup(tc.k), s.index.SpaceBytes()
		t0, loads := th.Clk.Now(), s.NVM().Stats().Loads
		if err := th.Put(tc.k, tc.v); err != nil {
			t.Fatal(err)
		}
		put, putLoads := th.Clk.Now()-t0, s.NVM().Stats().Loads-loads
		off, n := pwbOff(t, s, tc.k), len(tc.v)
		find, want := lookup, int64(0)
		if tc.insert {
			// The key index insert: the lookup's walk again, then the node's write.
			find += c.alloc()
			want = lookup + c.write(int(s.index.SpaceBytes()-space))
		}
		want += c.put(find, off, n)
		t.Logf("%s: %d ns = max(find %d, body %d) + seal %d + publish %d (CAS %d, persist %d, CAS %d); word read %d; index insert %d",
			tc.name, put, find, c.body(off, n), c.seal(), c.publish(), c.cas(), c.persist(1), c.cas(), c.read(8), want-c.put(find, off, n))
		if body := c.body(off, n); (body > find) != tc.bodyLonger {
			t.Fatalf("%s: body %d ns against lookup %d: not the case the test means", tc.name, body, find)
		}
		if put != want {
			t.Errorf("%s advanced the clock %d ns, want %d", tc.name, put, want)
		}
		// Alloc is on the lookup's branch and hidden behind the body: what
		// it costs must not show in the insert's number.
		if tc.pin != 0 && put != tc.pin {
			t.Errorf("%s advanced the clock %d ns, pinned at %d", tc.name, put, tc.pin)
		}
		// nvm.loads: the put's prefetch of the entry it CASes.
		if putLoads != 1 {
			t.Errorf("%s: %d NVM loads, want 1", tc.name, putLoads)
		}
	}

	k, v := aKey(5), kib(99)
	lookup := c.lookup(k)
	t0, loads := th.Clk.Now(), s.NVM().Stats().Loads
	got, err := th.Get(k)
	if err != nil || !bytes.Equal(got, v) {
		t.Fatalf("Get: %d bytes, %v", len(got), err)
	}
	get, getLoads := th.Clk.Now()-t0, s.NVM().Stats().Loads-loads
	t.Logf("PWB get: %d ns = lookup %d + entry read %d + value read %d", get, lookup, c.miss(), c.read(len(v)))
	if want := c.pwbGet(lookup, len(v)); get != want {
		t.Errorf("a PWB get advanced the clock %d ns, want %d", get, want)
	}
	// nvm.loads: the get's entry, its value and the uncharged pointer
	// recheck after the value read.
	if getLoads != 3 {
		t.Errorf("%d NVM loads for the get, want 3", getLoads)
	}
}

// TestSVCHitWaitsForNoNVM: a get the SVC serves issues the read of the
// entry's forward pointer, reads the entry's SVC handle from DRAM while it
// is in flight, and never waits for it: the clock advances by exactly
// lookup + one DRAM access + the value's DRAM copy.
func TestSVCHitWaitsForNoNVM(t *testing.T) {
	s, th := vsOnlyStore(t, 32, apart, nil)
	k, v := aKey(7), aValue(7)
	th.Clk.AdvanceTo(1 << 40)
	if _, err := th.Get(k); err != nil { // from Value Storage, admitted to the SVC
		t.Fatal(err)
	}
	th.Clk.Advance(1 << 20) // the channel is idle again
	c := costsOf(s, th.Clk.Now())
	lookup, hits := c.lookup(k), reg(t, s).n("core.read_path", "source", "svc")
	t0, loads := th.Clk.Now(), s.NVM().Stats().Loads
	got, err := th.Get(k)
	if err != nil || !bytes.Equal(got, v) {
		t.Fatalf("Get: %d bytes, %v", len(got), err)
	}
	if n := reg(t, s).n("core.read_path", "source", "svc") - hits; n != 1 {
		t.Fatalf("%d reads served from the SVC, want 1", n)
	}
	get := th.Clk.Now() - t0
	t.Logf("SVC get: %d ns = lookup %d + handle %d + copy %d; the pointer's read, %d, never waited for",
		get, lookup, c.dram(), dramCost(len(v)), c.entry())
	if want := c.svcGet(lookup, len(v)); get != want {
		t.Errorf("an SVC get advanced the clock %d ns, want %d", get, want)
	}
	// nvm.loads: the pointer's read, issued beside the handle's.
	if n := s.NVM().Stats().Loads - loads; n != 1 {
		t.Errorf("%d NVM loads for the get, want 1", n)
	}
}

// TestUpdatePutAllocatesNothing: an update put allocates nothing — its
// record's body clock lives on the Thread, so overlapping the body with the
// lookup costs no heap. write-churn's allocs_per_op (0.005) rests on it.
// TestVSGetAllocatesOnlyItsValue: on a warm store whose SVC is full, a get
// served from Value Storage allocates one object, the value it returns.
// Its admission reuses an entry the cache dropped two epochs ago (buffer
// and all), its read reuses a combining-queue waiter, and the device
// reports the read's completion time without a completion slice.
func TestVSGetAllocatesOnlyItsValue(t *testing.T) {
	const keys = 1024
	s, th := vsOnlyStore(t, keys, 0, func(o *Options) { o.SVCBytes = 256 << 10 })
	ks, vs := make([][]byte, keys), make([][]byte, keys)
	for k := range ks {
		ks[k], vs[k] = aKey(k), aValue(k)
	}
	i := 0
	get := func() {
		k := i % keys
		i++
		if v, err := th.Get(ks[k]); err != nil || !bytes.Equal(v, vs[k]) {
			t.Fatalf("Get(%d): %d bytes, %v", k, len(v), err)
		}
	}
	// Fill the cache and cycle its entries, the manager kept up with each
	// get: every get misses, and dropped entries are waiting for reuse.
	// AllocsPerRun runs on one P, where each miss yields to the manager.
	for j := 0; j < 4*keys; j++ {
		get()
		s.cache.Sync()
	}
	r := reg(t, s)
	hits, evictions, reuses := r.n("svc.hits"), r.n("svc.evictions"), r.n("svc.reuses")
	if n := testing.AllocsPerRun(200, get); n != 1 {
		t.Errorf("a get from Value Storage allocated %v times, want 1 (its value)", n)
	}
	r = reg(t, s)
	if r.n("svc.hits") != hits || r.n("svc.evictions") == evictions || r.n("svc.reuses") == reuses {
		t.Fatalf("the gets were not misses that cycled a full cache: hits %d -> %d, evictions %d -> %d, reuses %d -> %d",
			hits, r.n("svc.hits"), evictions, r.n("svc.evictions"), reuses, r.n("svc.reuses"))
	}
}

func TestUpdatePutAllocatesNothing(t *testing.T) {
	_, th := residentStore(t, 16)
	k, v := aKey(5), kib(99)
	if n := testing.AllocsPerRun(200, func() {
		if err := th.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("an update put allocated %v times, want 0", n)
	}
}
