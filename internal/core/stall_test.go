package core

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/record"
	"repro/internal/ssd"
)

// TestPutNeverPrecedesItsSpace: an append's clock is never behind the
// virtual time at which the ring bytes it reuses were released — not even
// the clock its record's body is charged to beside the lookup. The
// devices here write so slowly that a reclaim pass takes longer, in
// virtual time, than the puts that fill the ring behind it — while on
// the host the reclaimer's goroutine keeps up easily, so the ring is
// rarely found full and nothing but the release time holds a put back
// (one wait carries a put past a whole pass's worth of ring, so such puts
// number about as many as the passes).
func TestPutNeverPrecedesItsSpace(t *testing.T) {
	s := small(t, func(o *Options) {
		o.NumThreads = 1
		o.DisableSVC = true
		slow := ssd.Config{WriteBandwidth: 20_000_000} // 20 MB/s: 50 us per KiB migrated
		o.SSDConfigs = []ssd.Config{slow, slow}
	})
	th, b, c := s.Thread(0), s.pwbs[0], costsOf(s, 0)
	val := bytes.Repeat([]byte{'v'}, 1000)
	const keys, enough, maxPuts = 200, 20, 50_000
	bound, puts := 0, 0
	for i := 0; bound < enough; i++ { // until enough puts were held back by a release time alone
		if puts = i + 1; puts > maxPuts {
			t.Fatalf("only %d of %d puts were held back by a release time: the reclaimer is not slow enough to test anything", bound, maxPuts)
		}
		before := th.Clk.Now()
		releasedAt, room := b.Room(len(val)) // this goroutine is the ring's owner
		if err := th.Put(key(i%keys), val); err != nil {
			t.Fatal(err)
		}
		if !room {
			continue // slept on a full ring: reserve looked again after the wake-up
		}
		if releasedAt > before {
			bound++
		}
		// The put ran after both its own clock and its space's release, and
		// nothing of its record was charged before then: its body, seal and
		// publish all follow the later of the two. The publish is counted
		// without its line's writeback: a reclaimer's flush-on-read of the
		// entry may have done it first.
		off := b.GlobalOff(b.Head() - uint64(record.Size(len(val))))
		publish := 2*c.cas() + c.nvm.FlushLatency + c.nvm.FenceLatency
		if end, least := th.Clk.Now(), max(before, releasedAt)+c.appendRec(off, len(val))+publish; end < least {
			t.Fatalf("put %d: clock %d at entry, ring space released at %d — yet it ended at %d, before %d",
				i, before, releasedAt, end, least)
		}
	}
	st := reg(t, s)
	t.Logf("%d of %d puts landed in space released after their clock's time; %d counted stalled, %d attempts found the ring full",
		bound, puts, st.n("core.puts_stalled"), st.n("core.put_stalls"))
	if st.n("core.puts_stalled") < int64(bound) {
		t.Fatalf("core.puts_stalled = %d, but %d puts waited", st.n("core.puts_stalled"), bound)
	}
	if m, ok := s.Metrics().Get("core.put_stall_ns", nil); !ok || m.Hist.Count != st.n("core.puts_stalled") || m.Hist.Sum <= 0 {
		t.Fatalf("core.put_stall_ns = %+v, want one sample per stalled put", m.Hist)
	}
}

// TestStalledPutParks covers the other half of a stall, the host's: a
// put that finds its ring full sleeps — it charges nothing, retries
// nothing — until the tail moves, the store closes, or it crashes, and
// leaves no goroutine behind. An operation pinned inside its epoch keeps
// every grant from landing, so the ring fills and stays full for as long
// as the test wants.
func TestStalledPutParks(t *testing.T) {
	type parked struct {
		s     *Store
		unpin func()
		done  chan error // the stalled put's result
		clock int64      // its thread's clock when the ring was last seen with room
	}
	stall := func(t *testing.T) *parked {
		t.Helper()
		s := small(t, func(o *Options) {
			o.NumThreads = 1
			o.DisableSVC = true
		})
		pin := s.em.Register()
		pin.Enter()
		p := &parked{s: s, unpin: sync.OnceFunc(pin.Exit), done: make(chan error, 1)}
		t.Cleanup(p.unpin) // before the store's Close, which waits for epochs
		th, val := s.Thread(0), make([]byte, 1000)
		for i := 0; ; i++ {
			if _, room := s.pwbs[0].Room(len(val)); !room {
				break
			}
			if err := th.Put(key(i), val); err != nil {
				t.Fatal(err)
			}
		}
		p.clock = th.Clk.Now()
		go func() { p.done <- th.Put(key(0), val) }()
		for reg(t, s).n("core.put_stalls") == 0 {
			runtime.Gosched()
		}
		select {
		case err := <-p.done:
			t.Fatalf("put returned %v with the ring full and every grant held back", err)
		case <-time.After(20 * time.Millisecond):
		}
		if n := reg(t, s).n("core.put_stalls"); n != 1 {
			t.Fatalf("the sleeping put made %d attempts", n)
		}
		return p
	}
	wait := func(t *testing.T, p *parked) error {
		t.Helper()
		select {
		case err := <-p.done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("the stalled put never woke")
			return nil
		}
	}

	t.Run("grant", func(t *testing.T) {
		p := stall(t)
		p.unpin() // the maintenance tick's Collect lands the grants
		if err := wait(t, p); err != nil {
			t.Fatal(err)
		}
		th := p.s.Thread(0)
		if got, err := th.Get(key(0)); err != nil || len(got) != 1000 {
			t.Fatalf("the woken put's value: %d bytes, %v", len(got), err)
		}
		// One attempt slept, one appended; the clock moved by one put and,
		// at most, the wait for the reclaimer's virtual time.
		if st := reg(t, p.s); st.n("core.put_stalls") != 1 {
			t.Fatalf("%d attempts found the ring full", st.n("core.put_stalls"))
		}
		if th.Clk.Now() <= p.clock {
			t.Fatal("the put charged nothing")
		}
	})
	t.Run("close", func(t *testing.T) {
		before := runtime.NumGoroutine()
		p := stall(t)
		closed := make(chan error, 1)
		go func() { closed <- p.s.Close() }() // interrupts the rings, then waits out the pinned epoch
		if err := wait(t, p); !errors.Is(err, ErrClosed) {
			t.Fatalf("stalled put across Close: %v", err)
		}
		if now := p.s.Thread(0).Clk.Now(); now != p.clock {
			t.Fatalf("the put that never appended charged %d ns", now-p.clock)
		}
		p.unpin()
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before+1; { // +1: the epoch pin's cleanup is not a goroutine, the subtest's runner is
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines before the store opened, %d after it closed", before, runtime.NumGoroutine())
			}
			time.Sleep(time.Millisecond)
		}
	})
	t.Run("crash", func(t *testing.T) {
		p := stall(t)
		p.s.Crash()
		if err := wait(t, p); !errors.Is(err, ErrClosed) {
			t.Fatalf("stalled put across Crash: %v", err)
		}
		p.unpin()
		if _, err := p.s.Recover(); err != nil {
			t.Fatal(err)
		}
		th := p.s.Thread(0)
		if err := th.Put(key(0), []byte("after")); err != nil {
			t.Fatalf("put after recovery: %v", err)
		}
		if got, err := th.Get(key(0)); err != nil || string(got) != "after" {
			t.Fatalf("get after recovery: %q, %v", got, err)
		}
	})
}

// TestStalledAsyncPutChargesNothing: an admission window whose first put
// finds its ring full stops there with nothing charged to the async
// timeline — the put's step was never issued, so not even its doorbell is
// paid; the retry pays it. An operation pinned inside its epoch keeps the
// ring full.
func TestStalledAsyncPutChargesNothing(t *testing.T) {
	s := small(t, func(o *Options) {
		o.NumThreads = 1
		o.DisableSVC = true
	})
	pin := s.em.Register()
	pin.Enter()
	t.Cleanup(pin.Exit) // before the store's Close, which waits for epochs
	th, val := s.Thread(0), make([]byte, 1000)
	for i := 0; ; i++ {
		if _, room := s.pwbs[0].Room(len(val)); !room {
			break
		}
		if err := th.Put(key(i), val); err != nil {
			t.Fatal(err)
		}
	}
	a := th.async
	h := &Handle{a: a}
	h.arm(opPut, key(0), val, 0)
	a.execMu.Lock()
	before := a.lt.Clk.Now()
	n := a.pass([]*Handle{h})
	after := a.lt.Clk.Now()
	a.execMu.Unlock()
	if n != 0 {
		t.Fatalf("the pass consumed %d handles with the ring full", n)
	}
	if after != before {
		t.Fatalf("the stalled window moved the async timeline from %d to %d", before, after)
	}
}
