package shard

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// runMultiWriter drives writers concurrent Put streams (1 KiB values,
// disjoint key ranges) through their own router thread handles and
// returns the aggregate virtual-time throughput in ops per virtual
// second: total ops over the makespan across thread clocks.
func runMultiWriter(t *testing.T, shards, writers, opsPerWriter int) float64 {
	t.Helper()
	// Rings sized so the whole stream fits below the reclaim watermark:
	// the measured contention is the NVM append channel, not reclaim.
	s := small(t, shards, func(o *core.Options) {
		o.NumThreads = writers
		o.PWBBytesPerThread = 8 << 20
	})
	val := make([]byte, 1024)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := s.Thread(w)
			for i := 0; i < opsPerWriter; i++ {
				if err := th.Put([]byte(fmt.Sprintf("w%d-%08d", w, i)), val); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var makespan int64
	for w := 0; w < writers; w++ {
		if now := s.Thread(w).Clk.Now(); now > makespan {
			makespan = now
		}
	}
	if makespan <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	return float64(writers*opsPerWriter) / (float64(makespan) / 1e9)
}

// TestShardScaleSpeedup is the scale-out acceptance gate: under
// multi-writer load the per-store NVM DIMM channel is the shared
// bottleneck (every Put's ring append queues on it in virtual time), so
// four shards — four device sets — must lift aggregate virtual-time
// throughput by at least 2.5x over one store.
func TestShardScaleSpeedup(t *testing.T) {
	const writers, ops = 4, 2000
	base := runMultiWriter(t, 1, writers, ops)
	scaled := runMultiWriter(t, 4, writers, ops)
	speedup := scaled / base
	t.Logf("virtual throughput: 1 shard %.0f ops/s, 4 shards %.0f ops/s (%.2fx)", base, scaled, speedup)
	if speedup < 2.5 {
		t.Fatalf("4-shard speedup %.2fx, want >= 2.5x (1 shard %.0f ops/s, 4 shards %.0f ops/s)",
			speedup, base, scaled)
	}
}

// TestOneShardClockIsTheCoreThreads: with one shard a router thread's
// Clk is its core thread's clock, so a clock moved from outside — as a
// benchmark's round barrier moves it — moves the clock the next op runs
// on. Each op after such a move costs at least what an SVC hit does: its
// key index lookup reads NVM, and the hit reads one DRAM word. A router
// clock that only mirrored the core thread's would run these ops in its
// past, and they would cost 0 ns.
func TestOneShardClockIsTheCoreThreads(t *testing.T) {
	s := small(t, 1, nil)
	th := s.Thread(0)
	for i := 0; i < 100; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	floor := s.Shard(0).NVM().Config().ReadLatency + sim.DRAMLatency
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"put", func() error { return th.Put(key(1), value(1)) }},
		{"get", func() error { _, err := th.Get(key(2)); return err }},
		{"scan", func() error { return th.Scan(key(3), 10, func(core.KV) bool { return true }) }},
	} {
		th.Clk.AdvanceTo(th.Clk.Now() + 1<<20)
		t0 := th.Clk.Now()
		if err := op.run(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if d := th.Clk.Now() - t0; d < floor {
			t.Errorf("a %s after the clock moved cost %d ns, want >= %d (an NVM read and a DRAM word)", op.name, d, floor)
		}
	}
}
