package core

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/record"
	"repro/internal/sim"
	"repro/internal/valuestore"
)

// TestGCPassesRunPerDevice: every device is collected by a pass loop and a
// pass thread of its own, from its own kick's time. Two devices due at once
// are therefore collected side by side in virtual time — one loop serving
// every device started the second pass where the first one ended.
func TestGCPassesRunPerDevice(t *testing.T) {
	type span struct{ first, last int64 } // a pass's first and last swing
	var mu sync.Mutex
	var armed atomic.Bool
	spans := map[*Thread]*span{}
	settleHook = func(p *Thread) { // on p's goroutine: its clock is safe to read
		if !armed.Load() {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if sp := spans[p]; sp != nil {
			sp.last = p.Clk.Now()
		} else {
			spans[p] = &span{p.Clk.Now(), p.Clk.Now()}
		}
	}
	t.Cleanup(func() { settleHook = nil }) // after the store has closed
	s := small(t, func(o *Options) {
		o.NumThreads = 1
		o.PWBBytesPerThread = 1 << 20 // room for every put: no pass runs unasked
		o.reclaimWatermark = 0.95
		o.SSDBytes = 512 << 10 // 32 chunks a device, 2 of them the reserve
		o.GCFreeFraction = 0.1 // due at 3 free chunks
		o.DisableSVC = true
	})
	th, p := s.Thread(0), s.newThread(0, sim.NewRNG(1), nil, nil)
	// 3,000 keys, then 3 of every 4 overwritten: the first chunks on both
	// devices are a quarter live.
	for round := 0; round < 2; round++ {
		for i := 0; i < 3000; i++ {
			if round == 0 || i%4 != 0 {
				if err := th.Put(key(i), value(i+round*10_000)); err != nil {
					t.Fatal(err)
				}
			}
		}
		pass(p)
	}
	// Take both devices down to their reserve, below the fraction: due, and
	// nothing kicks them.
	var held []*valuestore.Writer
	defer func() {
		for _, w := range held {
			w.Abort()
		}
	}()
	for dev, st := range s.vsm.Stores {
		if n := st.Stats().LiveChunks; n < 4 {
			t.Fatalf("device %d holds %d live chunks; GC needs sparse ones to collect", dev, n)
		}
		for st.FreeChunks() > s.gcReserve(st) {
			w, err := st.NewWriter()
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, w)
		}
	}
	h := s.nvmDev.Now() // past every reservation: the passes queue behind nothing
	for _, d := range s.ssds {
		h = max(h, d.Now())
	}
	at := []int64{h, h + 1000}
	armed.Store(true)
	for dev, ch := range s.gcChs {
		kick(ch, at[dev])
	}
	deadline := time.Now().Add(5 * time.Second)
	for dev, st := range s.vsm.Stores {
		for st.FreeChunks() <= s.gcReserve(st) { // a pass frees its victims after its swings
			if time.Now().After(deadline) {
				t.Fatalf("device %d still at %d free chunks 5 s after its kick", dev, st.FreeChunks())
			}
			time.Sleep(time.Millisecond)
		}
	}
	armed.Store(false)

	mu.Lock()
	defer mu.Unlock()
	if len(spans) != len(s.vsm.Stores) {
		t.Fatalf("%d pass threads swung pointers for %d devices due at once", len(spans), len(s.vsm.Stores))
	}
	var passes []span
	for q, sp := range spans {
		if sp.first < at[q.id] {
			t.Errorf("device %d's GC pass swung its first pointer at %d, before its kick at %d", q.id, sp.first, at[q.id])
		}
		t.Logf("device %d: swings from +%d to +%d ns after its kick", q.id, sp.first-at[q.id], sp.last-at[q.id])
		passes = append(passes, *sp)
	}
	for i, a := range passes {
		b := passes[1-i]
		if a.first >= b.last {
			t.Errorf("one GC pass swung its first pointer at %d, after the other's last at %d: the passes ran one after the other",
				a.first, b.last)
		}
	}
}

// TestWriteCrossingTheTriggerDecaysItOnce: under SyncVSWrites a write that
// crosses the adaptive reclaim trigger runs the pass inline and decays the
// trigger once — a sync put and an async window alike. The admission loop
// used to probe again after its window, found the ring still above the
// decayed trigger (the pass's grant still in epoch grace) and decayed it a
// second time.
func TestWriteCrossingTheTriggerDecaysItOnce(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			s := small(t, func(o *Options) {
				o.NumThreads = 1
				o.PWBBytesPerThread = 64 << 10
				o.ChunkSize = 64 << 10 // the per-chunk inline drain never fires
				o.SyncVSWrites = true
			})
			// An epoch pinned throughout: the inline pass's grant cannot land,
			// and the ring stays above the decayed trigger, as it does
			// whenever epoch grace is slower than the write.
			pin := s.em.Register()
			pin.Enter()
			t.Cleanup(pin.Exit) // before the store's Close, which waits for epochs
			th, b, val := s.Thread(0), s.pwbs[0], make([]byte, 1024)
			step := float64(record.Size(len(val))) / float64(b.Size())
			for i := 0; b.Utilization()+step < wmStart; i++ {
				if err := th.Put(key(i), val); err != nil {
					t.Fatal(err)
				}
			}
			if got := s.effectiveWatermark(); got != wmStart {
				t.Fatalf("trigger %v before the crossing write, want %v", got, wmStart)
			}
			if got := reg(t, s).Sum("pwb.utilization"); got != b.Utilization() {
				t.Fatalf("pwb.utilization = %v, the ring's utilization is %v", got, b.Utilization())
			}
			var err error
			if async {
				err = th.PutTSAsync([]byte("crossing"), val, 0).Wait()
				th.Flush() // the handle completes inside the window, before its probe
			} else {
				err = th.Put([]byte("crossing"), val)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got, want := s.effectiveWatermark(), wmStart*wmDecay; math.Abs(got-want) > 1e-9 {
				t.Fatalf("one write across the trigger left it at %.4f, want %.4f (one decay)", got, want)
			}
		})
	}
}

// TestInlineReclaimInsideAsyncWindow: under SyncVSWrites the put of an
// async window that takes the ring past a chunk runs the reclaim pass
// inline, from inside its step of the window's frame. The pass opens frames
// of its own, so it runs on a pass thread of the ring's owner: opened on
// the window's thread they would nest in its frame and drop the window's
// Value Storage batch, under the get that waits for it.
func TestInlineReclaimInsideAsyncWindow(t *testing.T) {
	s := small(t, func(o *Options) {
		o.NumThreads = 1
		o.SyncVSWrites = true
		o.DisableSVC = true // the get below is served from Value Storage
	})
	th := s.Thread(0)
	put := func(i int) {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		put(i)
	}
	drain(t, s) // keys 0-49 on flash, the ring empty
	for i := 50; i < 150; i++ {
		put(i) // published, not yet scanned: ~6 KiB, under a chunk
	}
	reclaims := reg(t, s).n("pwb.reclaims")
	var got *Handle
	oneWindow(th, func() {
		got = th.GetAsync(key(0))
		for i := 0; i < 12; i++ { // 12 KiB: the ring crosses the 16 KiB chunk
			th.PutTSAsync(key(1000+i), kib(i), 0)
		}
	})
	if reg(t, s).n("pwb.reclaims") == reclaims {
		t.Fatal("no pass ran inside the window")
	}
	if v, err := got.Value(); err != nil || !bytes.Equal(v, value(0)) {
		t.Fatalf("the window's get of a flash-resident key = %.16q, %v", v, err)
	}
	for i := 0; i < 150; i++ {
		if v, err := th.Get(key(i)); err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("key %d = %.16q, %v", i, v, err)
		}
	}
}
