package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/ssd"
)

// apart is vsOnlyStore's filler for keys that are each their own extent:
// 12 records of 512 bytes are more than mergeGap.
const apart = 12

// vsOnlyStore returns a one-thread store holding n keys "a%06d" that
// are resident only in Value Storage (never read, so not in the SVC;
// drained, so not in the PWB), each followed by filler 512-byte records:
// with apart, every key is its own read extent; with none, neighbouring
// keys share extents.
func vsOnlyStore(t testing.TB, n, filler int, mutate func(*Options)) (*Store, *Thread) {
	t.Helper()
	s := small(t, func(o *Options) {
		o.NumThreads = 1
		o.SVCBytes = 1 << 20
		if mutate != nil {
			mutate(o)
		}
	})
	fillOnce(t, s)
	th := s.Thread(0)
	for i, f := 0, 0; i < n; i++ {
		if err := th.Put(aKey(i), aValue(i)); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < filler; j++ {
			f++
			if err := th.Put([]byte(fmt.Sprintf("b%06d", f)), make([]byte, 512)); err != nil {
				t.Fatal(err)
			}
		}
	}
	drain(t, s)
	return s, th
}

func aKey(i int) []byte   { return []byte(fmt.Sprintf("a%06d", i)) }
func aValue(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 256) }

// readIOs returns the read IO count of every device.
func readIOs(s *Store) []int64 {
	var ios []int64
	for _, d := range s.ssds {
		ios = append(ios, d.Stats().ReadIOs)
	}
	return ios
}

// TestBatchReadOverlapsExtents pins the timing model of a batched Value
// Storage read: the extents of one Scan, MultiGet or async get window
// are in flight together on every device, so the clock advances by
// about one read latency per depth-sized submission — not one per
// extent — while the devices still serve one IO per extent. svc.misses
// counts the rows read, one per key however many extents they took.
func TestBatchReadOverlapsExtents(t *testing.T) {
	type reader func(t *testing.T, s *Store, th *Thread, n int) (vals [][]byte, advance int64)
	readers := map[string]reader{
		"scan": func(t *testing.T, s *Store, th *Thread, n int) ([][]byte, int64) {
			var vals [][]byte
			t0 := th.Clk.Now()
			if err := th.Scan([]byte("a"), n, func(kv KV) bool { vals = append(vals, kv.Value); return true }); err != nil {
				t.Fatal(err)
			}
			return vals, th.Clk.Now() - t0
		},
		"multiget": func(t *testing.T, s *Store, th *Thread, n int) ([][]byte, int64) {
			keys := make([][]byte, n)
			for i := range keys {
				keys[i] = aKey(i)
			}
			t0 := th.Clk.Now()
			vals, err := th.MultiGetInto(keys, nil)
			if err != nil {
				t.Fatal(err)
			}
			return vals, th.Clk.Now() - t0
		},
		"async": func(t *testing.T, s *Store, th *Thread, n int) ([][]byte, int64) {
			hs := make([]*Handle, n)
			advance := oneWindow(th, func() {
				for i := range hs {
					hs[i] = th.GetAsync(aKey(i))
				}
			})
			vals := make([][]byte, n)
			for i, h := range hs {
				v, err := h.Value()
				if err != nil {
					t.Fatalf("key %d: %v", i, err)
				}
				vals[i] = v
			}
			return vals, advance
		},
	}
	cases := []struct {
		n, depth int
		adjacent bool // no filler: neighbouring keys share extents
	}{
		{n: 32, depth: 64},
		{n: 100, depth: 64}, // async: two admission windows
		{n: 100, depth: 8},  // every device's set takes several submissions
		{n: 32, depth: 64, adjacent: true},
	}
	misses := func(s *Store) int64 {
		m, _ := s.Metrics().Get("svc.misses", nil)
		return int64(m.Value)
	}
	for _, c := range cases {
		for name, read := range readers {
			sub := fmt.Sprintf("%s/%dkeys/depth%d", name, c.n, c.depth)
			filler := apart
			if c.adjacent {
				sub, filler = sub+"/adjacent", 0
			}
			t.Run(sub, func(t *testing.T) {
				// A 1 ms read latency makes the index and HSIT loads of a
				// hundred keys (about 1 us each) small change.
				s, th := vsOnlyStore(t, c.n, filler, func(o *Options) {
					o.QueueDepth = c.depth
					slow := ssd.Config{ReadLatency: 1_000_000}
					o.SSDConfigs = []ssd.Config{slow, slow} // small's two devices
				})
				lat := s.ssds[0].Config().ReadLatency
				// Far past every reservation the load and the drain left on
				// the NVM and SSD channels, so the reads queue behind nothing.
				th.Clk.AdvanceTo(1 << 40)
				th.async.lt.Clk.AdvanceTo(1 << 40)
				extents, ios, missed := reg(t, s).n("core.read_path", "source", "vs"), readIOs(s), misses(s)
				vals, advance := read(t, s, th, c.n)
				if len(vals) != c.n {
					t.Fatalf("read %d values, want %d", len(vals), c.n)
				}
				for i, v := range vals {
					if !bytes.Equal(v, aValue(i)) {
						t.Fatalf("key %d: wrong value (%d bytes)", i, len(v))
					}
				}
				extents = reg(t, s).n("core.read_path", "source", "vs") - extents
				switch {
				case c.adjacent && extents >= int64(c.n):
					t.Fatalf("%d extents for %d adjacent keys", extents, c.n)
				case !c.adjacent && (extents < int64(c.n)*3/4 || extents > int64(c.n)):
					t.Fatalf("%d extents for %d scattered keys", extents, c.n)
				}
				if got := misses(s) - missed; got != int64(c.n) {
					t.Fatalf("svc.misses moved by %d for %d rows read from Value Storage in %d extents", got, c.n, extents)
				}
				var total, busiest int64
				for d, after := range readIOs(s) {
					if after == ios[d] && !c.adjacent {
						t.Fatalf("device %d served no read: the keys are not spread over the devices", d)
					}
					total += after - ios[d]
					busiest = max(busiest, after-ios[d])
				}
				if total != extents {
					t.Fatalf("devices served %d read IOs for %d extents: overlapped IOs must not be dropped", total, extents)
				}
				// One read latency per submission on the busiest device; an
				// async window holds at most depth gets, one submission each.
				depth := int64(c.depth)
				waves := (busiest + depth - 1) / depth
				if name == "async" {
					waves = (int64(c.n) + depth - 1) / depth
				}
				t.Logf("%d extents, %d on the busiest device: clock advanced %d ns = %.2f read latencies", extents, busiest, advance, float64(advance)/float64(lat))
				if advance < waves*lat || advance >= (waves+1)*lat {
					t.Fatalf("clock advanced %d ns for %d extents at depth %d, want %d read latencies of %d ns and less than %d",
						advance, extents, c.depth, waves, lat, waves+1)
				}
			})
		}
	}
}

// TestSingleGetTiming pins a lone Get from Value Storage — the
// one-request case of the batched read — to what its steps cost on idle
// devices (cost_test.go): batching adds nothing to it.
func TestSingleGetTiming(t *testing.T) {
	s, th := vsOnlyStore(t, 32, apart, nil)
	ios := readIOs(s)
	// Far past every reservation the load and the drain left on the NVM
	// and SSD channels, so the Get queues behind nothing.
	t0 := th.Clk.AdvanceTo(1 << 40)
	c := costsOf(s, t0)
	want := c.vsGet(c.lookup(aKey(7)), len(aValue(7)))
	v, err := th.Get(aKey(7))
	if err != nil || !bytes.Equal(v, aValue(7)) {
		t.Fatalf("Get: %d bytes, %v", len(v), err)
	}
	advance := th.Clk.Now() - t0
	t.Logf("Get from Value Storage advanced the clock %d ns", advance)
	var total int64
	for d, after := range readIOs(s) {
		total += after - ios[d]
	}
	if total != 1 {
		t.Fatalf("%d read IOs for one Get", total)
	}
	if advance != want {
		t.Fatalf("Get advanced the clock %d ns, want %d", advance, want)
	}
}

// TestCombinedGetIgnoresItsLeadersClock: a Value Storage get that thread
// combining makes a follower goes out at its own thread's time, not its
// leader's (DESIGN.md §3.5). Two threads read VS-only keys on one device,
// one thread's clock a millisecond ahead of the other's, so a get of the
// trailing thread dragged to its leader's clock would cost a millisecond
// more. Every get on either thread must cost what a lone one does
// (TestSingleGetTiming). Once two threads combine, the leader tends to
// stay the leader, so the rounds take turns putting each thread ahead.
func TestCombinedGetIgnoresItsLeadersClock(t *testing.T) {
	const perRound = 75 // gets per thread and round
	s, _ := vsOnlyStore(t, 8*perRound, 0, func(o *Options) { o.NumThreads, o.NumSSDs = 2, 1 })
	clks := []*sim.Clock{s.Thread(0).Clk, s.Thread(1).Clk}
	t0 := clks[0].AdvanceTo(1 << 40)
	c := costsOf(s, t0)
	want := make([]int64, 8*perRound)
	for i := range want {
		want[i] = c.vsGet(c.lookup(aKey(i)), len(aValue(i)))
	}
	batches, reads := reg(t, s).n("tcq.batches"), reg(t, s).n("tcq.combined")

	for round, ahead := range []int{1, 0, 1, 0} {
		now := max(clks[0].Now(), clks[1].Now())
		clks[1-ahead].AdvanceTo(now)
		clks[ahead].AdvanceTo(now + 1_000_000)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for ti := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := s.Thread(ti)
				<-start
				for i := (2*round + ti) * perRound; i < (2*round+ti+1)*perRound; i++ {
					at := th.Clk.Now()
					if v, err := th.Get(aKey(i)); err != nil || !bytes.Equal(v, aValue(i)) {
						t.Errorf("thread %d Get %d: %d bytes, %v", ti, i, len(v), err)
						return
					}
					if d := th.Clk.Now() - at; d != want[i] {
						t.Errorf("round %d, thread %d: Get %d advanced the clock %d ns, want %d, a lone read's", round, ti, i, d, want[i])
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
	}
	batches, reads = reg(t, s).n("tcq.batches")-batches, reg(t, s).n("tcq.combined")-reads
	t.Logf("%d reads in %d submissions: %d served behind a leader", reads, batches, reads-batches)
}
