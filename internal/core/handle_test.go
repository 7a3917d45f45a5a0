package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestAsyncSubmitAllocatesNothing: once a thread has released handles to
// reuse, an asynchronous submission allocates nothing — the handle, its
// key and value copies, its completion and the window that runs it are
// all reused — for a put, a delete, and a get whichever of the SVC, the
// PWB or Value Storage serves it: the get appends its result to the
// handle's own buffer. Each case checks that its reads took the path it
// names.
func TestAsyncSubmitAllocatesNothing(t *testing.T) {
	const runs = 200
	// measure warms the pool, then counts op's allocations over runs
	// calls; op submits, waits, checks and releases.
	measure := func(t *testing.T, s *Store, path string, op func()) {
		t.Helper()
		for i := 0; i < 8; i++ {
			op()
		}
		var before int64
		if path != "" {
			before = reg(t, s).n("core.read_path", "source", path)
		}
		if n := testing.AllocsPerRun(runs, op); n != 0 {
			t.Errorf("allocated %v times per submission, want 0", n)
		}
		if path != "" {
			if got := reg(t, s).n("core.read_path", "source", path) - before; got < runs {
				t.Fatalf("%d of %d gets read from %s", got, runs, path)
			}
		}
	}
	get := func(t *testing.T, th *Thread, k, want []byte) {
		h := th.GetAsync(k)
		if v, err := h.Value(); err != nil || !bytes.Equal(v, want) {
			t.Fatalf("GetAsync: %d bytes, %v", len(v), err)
		}
		h.Release()
	}

	t.Run("put", func(t *testing.T) {
		s, th := residentStore(t, 16)
		k, v := aKey(5), kib(99)
		measure(t, s, "", func() {
			h := th.PutTSAsync(k, v, 0)
			if err := h.Wait(); err != nil {
				t.Fatal(err)
			}
			h.Release()
		})
	})
	t.Run("delete", func(t *testing.T) {
		s, th := residentStore(t, runs+16)
		ks := make([][]byte, runs+16)
		for k := range ks {
			ks[k] = aKey(k)
		}
		i := 0
		measure(t, s, "", func() {
			h := th.DeleteTSAsync(ks[i], 0)
			if err := h.Wait(); err != nil {
				t.Fatalf("DeleteAsync(%d): %v", i, err)
			}
			h.Release()
			i++
		})
	})
	t.Run("get/pwb", func(t *testing.T) {
		s, th := residentStore(t, 16)
		k, v := aKey(3), kib(3)
		measure(t, s, "pwb", func() { get(t, th, k, v) })
	})
	t.Run("get/svc", func(t *testing.T) {
		s, th := vsOnlyStore(t, 4, 0, nil)
		k, v := aKey(2), aValue(2)
		if _, err := th.Get(k); err != nil { // from Value Storage, admitted
			t.Fatal(err)
		}
		s.cache.Sync()
		measure(t, s, "svc", func() { get(t, th, k, v) })
	})
	t.Run("get/vs", func(t *testing.T) {
		// As in TestVSGetAllocatesOnlyItsValue: every get misses a full SVC
		// whose dropped entries wait to be reused.
		const keys = 1024
		s, th := vsOnlyStore(t, keys, 0, func(o *Options) { o.SVCBytes = 256 << 10 })
		ks, vs := make([][]byte, keys), make([][]byte, keys)
		for k := range ks {
			ks[k], vs[k] = aKey(k), aValue(k)
		}
		i := 0
		op := func() {
			get(t, th, ks[i%keys], vs[i%keys])
			i++
		}
		for j := 0; j < 4*keys; j++ {
			op()
			s.cache.Sync()
		}
		hits := reg(t, s).n("svc.hits")
		measure(t, s, "vs", op)
		if n := reg(t, s).n("svc.hits"); n != hits {
			t.Fatalf("%d of the gets hit the SVC", n-hits)
		}
	})
}

// TestReusedHandleEmptyValue: a reused handle starts over. It is not done
// before its window runs — a callback registered then waits for the
// result — a present empty value comes back non-nil although the buffer
// behind it held another key's value, and a get of a missing key returns
// nil and ErrNotFound, not what the handle held before.
func TestReusedHandleEmptyValue(t *testing.T) {
	s := small(t, func(o *Options) { o.NumThreads = 1 })
	th := s.Thread(0)
	k, v := key(1), value(1)
	if err := th.Put(k, v); err != nil {
		t.Fatal(err)
	}
	// Two released handles: queueWindow's parked get takes one.
	h1, h2 := th.GetAsync(k), th.GetAsync(k)
	for _, h := range []*Handle{h1, h2} {
		if got, err := h.Value(); err != nil || !bytes.Equal(got, v) {
			t.Fatalf("GetAsync: %q, %v", got, err)
		}
	}
	h2.Release()
	h1.Release()

	// The loop is parked while the put is submitted: what it sees there is
	// reported once the window is let go.
	var put *Handle
	var early []string
	called := make(chan struct{}, 1)
	queueWindow(th, func() {
		if put = th.PutTSAsync(key(2), []byte{}, 0); put != h2 {
			early = append(early, "the put did not reuse the released handle")
		}
		if put.Done() {
			early = append(early, "a reused handle reads done before its window ran")
		}
		put.OnDone(func(*Handle) { called <- struct{}{} })
		select {
		case <-called:
			early = append(early, "a reused handle ran its callback before its window ran")
		default:
		}
	})
	if err := put.Wait(); err != nil || early != nil {
		t.Fatalf("put: %v; %q", err, early)
	}
	<-called
	put.Release()

	g := th.GetAsync(key(2))
	if g != put {
		t.Fatal("the get did not reuse the released handle")
	}
	if got, err := g.Value(); err != nil || got == nil || len(got) != 0 {
		t.Fatalf("GetAsync of an empty value on a reused handle: %q (nil %v), %v", got, got == nil, err)
	}
	g.Release()

	m := th.GetAsync(key(3))
	if got, err := m.Value(); got != nil || !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetAsync of a missing key on a reused handle: %q, %v", got, err)
	}
	m.Release()
}

// TestHandleReuseStress: goroutines share one Thread's handles — each
// submits puts, gets and deletes of its own keys, pipelined, waits, checks
// every result and releases every handle, so each handle carries many
// goroutines' operations in turn. Values say whose key and which write
// they are, and their lengths vary, empty included, so a result read
// from a handle another goroutine re-armed, or a buffer one result
// outgrew, shows up. make race runs it.
func TestHandleReuseStress(t *testing.T) {
	s := small(t, func(o *Options) { o.NumThreads = 1 })
	th := s.Thread(0)
	const goroutines, rounds, depth = 8, 150, 4
	val := func(g, k, r int) []byte {
		if r%7 == 3 {
			return []byte{}
		}
		v := fmt.Appendf(nil, "g%d-k%d-r%d:", g, k, r)
		return append(v, bytes.Repeat([]byte{byte(r)}, r*37%300)...)
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys := make([][]byte, depth)
			for k := range keys {
				keys[k] = []byte(fmt.Sprintf("g%d-key%d", g, k))
			}
			hs := make([]*Handle, depth)
			for r := 0; r < rounds; r++ {
				for k := range keys {
					hs[k] = th.PutTSAsync(keys[k], val(g, k, r), 0)
				}
				for _, h := range hs {
					if err := h.Wait(); err != nil {
						errs <- err
						return
					}
					h.Release()
				}
				del := r%5 == 4
				for k := range keys {
					if del && k%2 == 0 {
						th.DeleteTSAsync(keys[k], 0).Release()
					}
					hs[k] = th.GetAsync(keys[k])
				}
				for k, h := range hs {
					got, err := h.Value()
					want := val(g, k, r)
					if del && k%2 == 0 {
						if got != nil || !errors.Is(err, ErrNotFound) {
							errs <- fmt.Errorf("goroutine %d round %d: deleted key %d read %q, %v", g, r, k, got, err)
							return
						}
					} else if err != nil || got == nil || !bytes.Equal(got, want) {
						errs <- fmt.Errorf("goroutine %d round %d: key %d read %q (%v), want %q", g, r, k, got, err, want)
						return
					}
					h.Release()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
