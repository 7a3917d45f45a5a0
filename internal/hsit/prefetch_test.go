package hsit

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/nvm"
	"repro/internal/sim"
)

// costs are what the accesses a publish makes cost on an idle device with
// the default configuration, measured: an 8-byte load, a CAS, the persist
// of one dirty line.
type costs struct{ load, cas, persist int64 }

func deviceCosts() (c costs) {
	d, clk := nvm.New(nvm.Config{Size: nvm.LineSize}), sim.NewClock(0)
	lap := func(f func()) int64 {
		clk.Advance(1 << 20) // the channel is idle again
		t0 := clk.Now()
		f()
		return clk.Now() - t0
	}
	c.load = lap(func() { d.LoadUint64(clk, 0) })
	c.cas = lap(func() { d.CompareAndSwapUint64(clk, 0, 0, 1) })
	c.persist = lap(func() { d.Persist(clk, 0, 8) })
	return c
}

// elsewhere runs f on another goroutine and waits for it: what happens to
// the entry between a writer's prefetch and its install is another
// thread's doing, and the race detector should see it that way.
func elsewhere(f func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); f() }()
	wg.Wait()
}

// TestPublishActsOnTheCurrentWord: a prefetch carries cost, never data. A
// writer prefetches its entry, somebody else changes it, the writer
// publishes: whatever changed, the publish displaces and returns the
// pointer that is there now and the SVC handle that is there after the
// install, and — the word being loaded where it is used — pays for no read
// beyond the one it prefetched. Only a word that changes between install's
// read and its CAS costs a reload, and exactly one.
func TestPublishActsOnTheCurrentWord(t *testing.T) {
	p1 := Pointer{Media: PWB, Len: 10, Off: 100}
	p2 := Pointer{Media: PWB, Len: 10, Off: 200}
	p3 := Pointer{Media: VS, Len: 10, Off: 300}
	const handle = 77

	for _, c := range []struct {
		name    string
		dirty   bool // the entry starts as p1 with its dirty bit set
		between func(tb *Table, idx uint64)
		old     Pointer
		svc     uint64
	}{
		{"nothing", false, func(*Table, uint64) {}, p1, 0},
		{"flush-on-read clears the dirty bit", true, func(tb *Table, idx uint64) { tb.Load(nil, idx) }, p1, 0},
		{"PublishIf moves the entry", false, func(tb *Table, idx uint64) {
			if _, ok := tb.PublishIf(nil, idx, p1, p3); !ok {
				t.Error("PublishIf refused")
			}
		}, p3, 0},
		{"an admission publishes a handle", false, func(tb *Table, idx uint64) {
			if !tb.CasSVC(nil, idx, 0, handle) {
				t.Error("CasSVC refused")
			}
		}, p1, handle},
	} {
		t.Run(c.name, func(t *testing.T) {
			tb, dev, _ := newTable(4)
			idx, _ := tb.Alloc(nil)
			tb.Publish(nil, idx, p1)
			if c.dirty {
				dev.StoreUint64(nil, tb.word(idx), Encode(p1)|dirtyBit)
			}
			cost, clk := deviceCosts(), sim.NewClock(1<<20)

			t0, loads := clk.Now(), dev.Stats().Loads
			ready := tb.Prefetch(clk, idx)
			if n := dev.Stats().Loads - loads; clk.Now() != t0 || ready != t0+cost.load || n != 1 {
				t.Fatalf("Prefetch at %d: clock at %d, ready at %d, %d loads; want the clock unmoved, ready at %d, one load",
					t0, clk.Now(), ready, n, t0+cost.load)
			}
			elsewhere(func() { c.between(tb, idx) })

			loads = dev.Stats().Loads
			old, svc := tb.PublishAt(clk, idx, p2, ready)
			if old != c.old || svc != c.svc {
				t.Errorf("PublishAt displaced %v and found handle %d, want %v and %d", old, svc, c.old, c.svc)
			}
			if want := cost.load + cost.cas + cost.persist + cost.cas; clk.Now()-t0 != want {
				t.Errorf("prefetch and publish cost %d ns, want %d: one read, CAS, persist, CAS", clk.Now()-t0, want)
			}
			if n := dev.Stats().Loads - loads; n != 0 {
				t.Errorf("PublishAt counted %d NVM loads, want none beyond its prefetch", n)
			}
			if got := tb.Load(nil, idx); got != p2 {
				t.Errorf("Load after the publish = %v, want %v", got, p2)
			}
		})
	}

	t.Run("a lost CAS reloads once", func(t *testing.T) {
		tb, dev, _ := newTable(4)
		idx, _ := tb.Alloc(nil)
		off := tb.word(idx)
		dev.StoreUint64(nil, off, Encode(p1)|dirtyBit)
		cost, clk := deviceCosts(), sim.NewClock(1<<20)

		// install's caller has read the word; a reader's flush-on-read
		// clears the dirty bit before install's CAS.
		v := tb.lockVersion(idx)
		w := dev.HeldUint64(off)
		elsewhere(func() { tb.Load(nil, idx) })
		t0, loads := clk.Now(), dev.Stats().Loads
		old := tb.install(clk, off, w, Encode(p2))
		tb.vers[idx].Store(v + 2)

		if old != Encode(p1) {
			t.Errorf("install displaced %#x, want p1's clean word %#x", old, Encode(p1))
		}
		if want := cost.cas + cost.load + cost.cas + cost.persist + cost.cas; clk.Now()-t0 != want {
			t.Errorf("install cost %d ns, want %d: the lost CAS, one reload, CAS, persist, CAS", clk.Now()-t0, want)
		}
		if n := dev.Stats().Loads - loads; n != 1 {
			t.Errorf("install counted %d NVM loads, want the one reload", n)
		}
		if got := tb.Load(nil, idx); got != p2 {
			t.Errorf("Load after the install = %v, want %v", got, p2)
		}
	})
}

// TestPrefetchedPublishStress runs the interleavings concurrently, for the
// race detector: a writer that prefetches, yields and publishes.
//
// Beside a reader and a mover that PublishIfs whatever it last loaded,
// every pointer ever installed is displaced exactly once — returned to the
// writer, or the mover's expectation — except the one left at the end.
//
// Beside an admitter that follows core's admission protocol (CAS the handle
// in, re-check the version, retract) and a reader that resolves the entry
// as core's read path does (prefetch the pointer, read the handle, wait
// for the pointer only without one), no handle survives a publish that did
// not see it: the writer unpublishes the handle its publish returns, the
// admitter retracts when the version moved, so whenever both are done a
// handle still in the entry was admitted under the entry's version.
func TestPrefetchedPublishStress(t *testing.T) {
	const n = 1000
	first := Pointer{Media: PWB, Len: 1, Off: 1}
	// publish is the writer's i-th put: the others land in the yield.
	publish := func(tb *Table, clk *sim.Clock, idx uint64, i int) (p, old Pointer) {
		p = Pointer{Media: PWB, Len: 3, Off: uint64(i)}
		ready := tb.Prefetch(clk, idx)
		runtime.Gosched()
		old, svc := tb.PublishAt(clk, idx, p, ready)
		if svc != 0 {
			tb.CasSVC(clk, idx, svc, 0)
		}
		return p, old
	}

	t.Run("mover", func(t *testing.T) {
		tb, _, _ := newTable(4)
		idx, _ := tb.Alloc(nil)
		tb.Publish(nil, idx, first)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		var moved, expected []Pointer // the mover's, read once it has stopped
		for _, f := range []func(int){
			func(int) { tb.Load(nil, idx) },
			func(i int) {
				expect, p := tb.Load(nil, idx), Pointer{Media: VS, Len: 2, Off: uint64(i)}
				if _, ok := tb.PublishIf(nil, idx, expect, p); ok {
					moved, expected = append(moved, p), append(expected, expect)
				}
			},
		} {
			wg.Add(1)
			go func(f func(int)) {
				defer wg.Done()
				for i := 1; ; i++ {
					select {
					case <-stop:
						return
					default:
						f(i)
						runtime.Gosched()
					}
				}
			}(f)
		}
		installed, clk := map[Pointer]bool{first: true}, sim.NewClock(0)
		var gone []Pointer
		for i := 1; i <= n; i++ {
			p, old := publish(tb, clk, idx, i)
			installed[p], gone = true, append(gone, old)
		}
		close(stop)
		wg.Wait()

		for _, p := range moved {
			installed[p] = true
		}
		for _, p := range append(gone, expected...) {
			if !installed[p] {
				t.Fatalf("%v was displaced twice, or never installed", p)
			}
			delete(installed, p)
		}
		if last := tb.Load(nil, idx); len(installed) != 1 || !installed[last] {
			t.Fatalf("installed and never displaced: %v; the entry holds %v", installed, last)
		}
		t.Logf("%d publishes by the writer, %d by the mover", n, len(moved))
	})

	t.Run("admitter", func(t *testing.T) {
		tb, _, _ := newTable(4)
		idx, _ := tb.Alloc(nil)
		tb.Publish(nil, idx, first)
		stop, read := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(read)
			for clk := sim.NewClock(0); ; runtime.Gosched() {
				select {
				case <-stop:
					return
				default:
				}
				if ready := tb.Prefetch(clk, idx); tb.SVC(clk, idx) == 0 {
					tb.LoadAt(clk, idx, ready)
				}
			}
		}()
		clk, kept := sim.NewClock(0), 0
		for i := 1; i <= n; i++ {
			var under uint64 // the version handle i went in under
			done := make(chan struct{})
			go func() {
				defer close(done)
				under = tb.Version(idx)
				if under&1 == 0 && tb.CasSVC(nil, idx, 0, uint64(i)) && tb.Version(idx) != under {
					tb.CasSVC(nil, idx, uint64(i), 0)
				}
			}()
			publish(tb, clk, idx, i)
			<-done
			if h := tb.SVC(nil, idx); h != 0 {
				if kept++; h != uint64(i) || under != tb.Version(idx) {
					t.Fatalf("round %d: handle %d, admitted under version %d, outlived a publish: the entry is at version %d", i, h, under, tb.Version(idx))
				}
			}
		}
		close(stop)
		<-read
		t.Logf("%d of %d admissions landed after the publish they ran beside, and were kept", kept, n)
	})
}
