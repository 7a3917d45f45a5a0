package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func asyncStore(t *testing.T, mut func(*Options)) *Store {
	t.Helper()
	opt := Options{
		NumThreads:        2,
		PWBBytesPerThread: 64 << 10,
		HSITCapacity:      1 << 12,
		NumSSDs:           1,
		SSDBytes:          4 << 20,
		ChunkSize:         16 << 10,
		SVCBytes:          32 << 10,
	}
	if mut != nil {
		mut(&opt)
	}
	s, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestAsyncRoundtrip exercises the basic future semantics: a completed
// PutAsync is visible to a later GetAsync and to the synchronous path,
// submissions on one Thread apply in submission order, and missing keys
// report ErrNotFound.
func TestAsyncRoundtrip(t *testing.T) {
	s := asyncStore(t, nil)
	th := s.Thread(0)

	hp := th.PutAsync([]byte("k"), []byte("v1"))
	hp2 := th.PutAsync([]byte("k"), []byte("v2")) // later submission wins
	hg := th.GetAsync([]byte("k"))
	if err := hp.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := hp2.Wait(); err != nil {
		t.Fatal(err)
	}
	v, err := hg.Value()
	if err != nil || !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("GetAsync = %q, %v; want v2", v, err)
	}
	if hp.CompletedAt() > hp2.CompletedAt() {
		t.Fatalf("completion times not monotone: %d > %d", hp.CompletedAt(), hp2.CompletedAt())
	}
	// Visible on the synchronous path too (same store state).
	if v, err := th.Get([]byte("k")); err != nil || !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("sync Get after async Put = %q, %v", v, err)
	}

	if err := th.DeleteAsync([]byte("k")).Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := th.GetAsync([]byte("k")).Value(); err != ErrNotFound {
		t.Fatalf("GetAsync after delete: %v, want ErrNotFound", err)
	}
	if err := th.DeleteAsync([]byte("nope")).Wait(); err != ErrNotFound {
		t.Fatalf("DeleteAsync missing: %v, want ErrNotFound", err)
	}

	// Empty value stays distinguishable from missing.
	if err := th.PutAsync([]byte("e"), nil).Wait(); err != nil {
		t.Fatal(err)
	}
	if v, err := th.GetAsync([]byte("e")).Value(); err != nil || v == nil || len(v) != 0 {
		t.Fatalf("empty value roundtrip = %v, %v", v, err)
	}
}

// TestAsyncFlushAndClose checks Flush quiescence and the Close
// contract: submissions after Close fail fast with ErrClosed, and
// handles still queued at Close complete (with ErrClosed) rather than
// hanging their waiters.
func TestAsyncFlushAndClose(t *testing.T) {
	s := asyncStore(t, nil)
	th := s.Thread(0)
	var hs []*Handle
	for i := 0; i < 100; i++ {
		hs = append(hs, th.PutAsync([]byte(fmt.Sprintf("k%03d", i)), []byte("v")))
	}
	th.Flush()
	for i, h := range hs {
		if !h.Done() {
			t.Fatalf("handle %d not done after Flush", i)
		}
		if err := h.Wait(); err != nil {
			t.Fatalf("handle %d: %v", i, err)
		}
	}
	if n := s.Stats().AsyncPuts; n != 100 {
		t.Fatalf("AsyncPuts = %d, want 100", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := th.PutAsync([]byte("late"), []byte("v")).Wait(); err != ErrClosed {
		t.Fatalf("PutAsync after Close: %v, want ErrClosed", err)
	}
	if err := th.GetAsync([]byte("late")).Wait(); err != ErrClosed {
		t.Fatalf("GetAsync after Close: %v, want ErrClosed", err)
	}
}

// TestAsyncCoalescing verifies the admission loop actually batches: a
// burst of puts submitted ahead of the loop must land in far fewer
// admission windows than ops, observable as epoch enters well below one
// per op (the window shares one epoch section).
func TestAsyncCoalescing(t *testing.T) {
	s := asyncStore(t, nil)
	th := s.Thread(0)
	e0 := s.em.Enters()
	const ops = 256
	var hs []*Handle
	for i := 0; i < ops; i++ {
		hs = append(hs, th.PutAsync([]byte(fmt.Sprintf("k%04d", i)), make([]byte, 64)))
	}
	th.Flush()
	for _, h := range hs {
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	enters := s.em.Enters() - e0
	if enters >= ops {
		t.Fatalf("epoch enters %d for %d async puts: admission loop did not coalesce", enters, ops)
	}
	t.Logf("%d async puts -> %d epoch enters", ops, enters)
}

// TestAsyncCompletionStress hammers the admission loops from many
// concurrent submitter goroutines per thread handle while tiny PWB
// rings force constant reclamation stalls mid-window. Every handle must
// complete exactly once (a double completion would panic closing the
// done channel twice; a lost wakeup would hang Flush or a Wait), with
// no error other than ErrNotFound.
func TestAsyncCompletionStress(t *testing.T) {
	s := asyncStore(t, func(o *Options) {
		o.PWBBytesPerThread = 8 << 10 // tiny rings: stall/reclaim churn
		o.QueueDepth = 8
	})
	const submitters, opsEach = 4, 250
	val := bytes.Repeat([]byte("x"), 200)
	var completed atomic.Int64
	var wg sync.WaitGroup
	for ti := 0; ti < s.NumThreads(); ti++ {
		th := s.Thread(ti)
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(ti, g int) {
				defer wg.Done()
				var hs []*Handle
				for i := 0; i < opsEach; i++ {
					key := []byte(fmt.Sprintf("t%d-g%d-%03d", ti, g, i%40))
					var h *Handle
					switch i % 4 {
					case 0, 1:
						h = th.PutAsync(key, val)
					case 2:
						h = th.GetAsync(key)
					default:
						h = th.DeleteAsync(key)
					}
					hs = append(hs, h)
					if i%16 == 0 {
						// Interleave waiting with submitting: exercises
						// completion wakeups racing fresh submissions.
						if err := h.Wait(); err != nil && err != ErrNotFound {
							t.Error(err)
							return
						}
					}
				}
				for _, h := range hs {
					if err := h.Wait(); err != nil && err != ErrNotFound {
						t.Error(err)
						return
					}
					// Waiting again must return the identical result.
					if err2 := h.Wait(); !errors.Is(err2, h.err) {
						t.Errorf("second Wait differs: %v", err2)
						return
					}
					completed.Add(1)
				}
			}(ti, g)
		}
	}
	wg.Wait()
	for ti := 0; ti < s.NumThreads(); ti++ {
		s.Thread(ti).Flush()
	}
	want := int64(s.NumThreads() * submitters * opsEach)
	if completed.Load() != want {
		t.Fatalf("completed %d handles, want %d", completed.Load(), want)
	}
	st := s.Stats()
	if st.AsyncPuts+st.AsyncGets+st.AsyncDeletes != want {
		t.Fatalf("async stats %d+%d+%d != %d", st.AsyncPuts, st.AsyncGets, st.AsyncDeletes, want)
	}
}

// TestAsyncBackpressureBound: with the admission loop parked on one get,
// a goroutine submits asyncMaxPending more puts. The first
// asyncMaxPending-1 return at once; the last, the bound's +1st
// submission, blocks with exactly asyncMaxPending in flight until the
// loop is released, and then everything completes.
func TestAsyncBackpressureBound(t *testing.T) {
	s := asyncStore(t, nil)
	th := s.Thread(0)
	hs := make([]*Handle, asyncMaxPending)
	var returned atomic.Int64
	done := make(chan struct{})
	parked := queueWindow(th, func() {
		go func() {
			defer close(done)
			for i := range hs {
				hs[i] = th.PutAsync([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
				returned.Add(1)
			}
		}()
		for th.async.inflight.Load() < asyncMaxPending {
			runtime.Gosched()
		}
		// Nothing can complete while the loop is parked, so with a higher
		// bound the last submission would return within this pause.
		time.Sleep(10 * time.Millisecond)
		if n := returned.Load(); n != asyncMaxPending-1 {
			t.Errorf("%d of %d submissions returned with the loop parked, want %d", n, asyncMaxPending, asyncMaxPending-1)
		}
		if n := th.async.inflight.Load(); n != asyncMaxPending {
			t.Errorf("inflight = %d with the loop parked, want %d", n, asyncMaxPending)
		}
	})
	<-done
	th.Flush()
	if err := parked.Wait(); err != ErrNotFound {
		t.Fatalf("parked get: %v, want ErrNotFound", err)
	}
	for i, h := range hs {
		if err := h.Wait(); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
}

// TestAsyncConcurrentWithSync drives synchronous Put/PutBatch/Get on
// the public Thread handle while a second goroutine keeps the async
// pipeline of the same thread busy: the shared PWB ring must stay
// consistent (execMu serializes append windows) and both paths must see
// each other's completed writes.
func TestAsyncConcurrentWithSync(t *testing.T) {
	s := asyncStore(t, nil)
	th := s.Thread(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Put, then look at stop: on a busy host the sync loop below can
		// finish before this goroutine first runs, and async-000 is read
		// back at the end.
		for i := 0; ; i++ {
			key := []byte(fmt.Sprintf("async-%03d", i%64))
			if err := th.PutAsync(key, []byte("av")).Wait(); err != nil {
				t.Error(err)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	val := bytes.Repeat([]byte("s"), 128)
	for i := 0; i < 400; i++ {
		key := []byte(fmt.Sprintf("sync-%03d", i%64))
		if err := th.Put(key, val); err != nil {
			t.Fatal(err)
		}
		if v, err := th.Get(key); err != nil || !bytes.Equal(v, val) {
			t.Fatalf("sync Get = %q, %v", v, err)
		}
		if i%10 == 0 {
			if err := th.PutBatch([]KV{{Key: key, Value: val}, {Key: []byte("b"), Value: val}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	th.Flush()
	if v, err := th.Get([]byte("async-000")); err != nil || !bytes.Equal(v, []byte("av")) {
		t.Fatalf("sync read of async write = %q, %v", v, err)
	}
}

// TestAsyncCrashRecover crashes the store while async puts are in
// flight and verifies the durable prefix property carries over: after
// Recover, every key whose handle completed successfully before the
// crash must be present with its submitted value.
func TestAsyncCrashRecover(t *testing.T) {
	s := asyncStore(t, nil)
	th := s.Thread(0)
	const ops = 200
	var hs []*Handle
	for i := 0; i < ops; i++ {
		hs = append(hs, th.PutAsync([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%04d", i))))
	}
	hs[ops/4].Wait() // let the pipeline get partway through the stream
	s.Crash()        // joins the admission loop mid-stream; rest fail with ErrClosed
	okBefore := 0
	sawClosed := false
	for _, h := range hs {
		if !h.Done() {
			t.Fatal("handle not completed after Crash")
		}
		switch err := h.Wait(); err {
		case nil:
			if sawClosed {
				t.Fatal("successful completion after a failed one: not a prefix")
			}
			okBefore++
		case ErrClosed:
			sawClosed = true
		default:
			t.Fatal(err)
		}
	}
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < okBefore; i++ {
		v, err := th.Get([]byte(fmt.Sprintf("k%04d", i)))
		if err != nil || !bytes.Equal(v, []byte(fmt.Sprintf("v%04d", i))) {
			t.Fatalf("key %d completed before crash but reads %q, %v after recovery", i, v, err)
		}
	}
	// The pipeline must be usable again after recovery.
	if err := th.PutAsync([]byte("post"), []byte("crash")).Wait(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d/%d async puts completed before crash", okBefore, ops)
}
