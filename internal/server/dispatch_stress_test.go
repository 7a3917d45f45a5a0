package server_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/respclient"
)

// TestDispatchContentionStress is the race gate for contention-free
// dispatch: every connection is pinned to the SAME store thread
// (NumThreads: 1), so async single-key submissions from the fast-path
// connections run concurrently with the locked synchronous surface
// (MSET/MGET/SCAN/MULTI-EXEC) exercised by the slow-path connections —
// the exact interleaving the per-handle mutex used to forbid. Every
// reply is verified, so cross-connection corruption (not just races)
// fails the test.
func TestDispatchContentionStress(t *testing.T) {
	store, addr := serve(t, core.Options{NumThreads: 1}, server.Config{}, 10*time.Second)

	const (
		asyncConns  = 6
		lockedConns = 2
		rounds      = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, asyncConns+lockedConns)

	// Fast-path connections: pipelined single-key bursts, never touching
	// the slot mutex.
	for ci := 0; ci < asyncConns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := respclient.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for r := 0; r < rounds; r++ {
				k := fmt.Sprintf("a%d-%d", ci, r)
				v := fmt.Sprintf("v%d-%d", ci, r)
				c.Send("SET", k, v)
				c.Send("GET", k)
				c.Send("EXISTS", k)
				c.Send("DEL", k)
				c.Send("EXISTS", k)
				if err := c.Flush(); err != nil {
					errs <- err
					return
				}
				want := []func(respclient.Reply) bool{
					func(r respclient.Reply) bool { return r.Str == "OK" },
					func(r respclient.Reply) bool { return r.Str == v },
					func(r respclient.Reply) bool { return r.Int == 1 },
					func(r respclient.Reply) bool { return r.Int == 1 },
					func(r respclient.Reply) bool { return r.Int == 0 },
				}
				for i, ok := range want {
					rep, err := c.Receive()
					if err != nil {
						errs <- fmt.Errorf("async conn %d round %d reply %d: %w", ci, r, i, err)
						return
					}
					if rerr := rep.Err(); rerr != nil || !ok(rep) {
						errs <- fmt.Errorf("async conn %d round %d reply %d: %+v (%v)", ci, r, i, rep, rerr)
						return
					}
				}
			}
		}(ci)
	}

	// Slow-path connections: multi-key and transactional verbs holding
	// the slot mutex while the async connections keep submitting.
	for ci := 0; ci < lockedConns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := respclient.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for r := 0; r < rounds; r++ {
				k1 := fmt.Sprintf("m%d-%d-1", ci, r)
				k2 := fmt.Sprintf("m%d-%d-2", ci, r)
				if rep, err := c.Do("MSET", k1, "x", k2, "y"); err != nil || rep.Str != "OK" {
					errs <- fmt.Errorf("locked conn %d round %d MSET: %+v (%v)", ci, r, rep, err)
					return
				}
				rep, err := c.Do("MGET", k1, k2, "missing")
				if err != nil || len(rep.Elems) != 3 ||
					rep.Elems[0].Str != "x" || rep.Elems[1].Str != "y" || !rep.Elems[2].Nil {
					errs <- fmt.Errorf("locked conn %d round %d MGET: %+v (%v)", ci, r, rep, err)
					return
				}
				if _, err := c.Do("MULTI"); err != nil {
					errs <- err
					return
				}
				tk := fmt.Sprintf("t%d-%d", ci, r)
				if _, err := c.Do("SET", tk, "tx"); err != nil {
					errs <- err
					return
				}
				if _, err := c.Do("GET", tk); err != nil {
					errs <- err
					return
				}
				rep, err = c.Do("EXEC")
				if err != nil || len(rep.Elems) != 2 ||
					rep.Elems[0].Str != "OK" || rep.Elems[1].Str != "tx" {
					errs <- fmt.Errorf("locked conn %d round %d EXEC: %+v (%v)", ci, r, rep, err)
					return
				}
				if rep, err := c.Do("SCAN", k1, "2"); err != nil || len(rep.Elems) < 2 {
					errs <- fmt.Errorf("locked conn %d round %d SCAN: %+v (%v)", ci, r, rep, err)
					return
				}
			}
		}(ci)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Async connections deleted their keys; locked connections left 3 per
	// round (2 MSET + 1 transactional).
	c, err := respclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if rep, err := c.Do("DBSIZE"); err != nil || rep.Int != lockedConns*rounds*3 {
		t.Fatalf("DBSIZE = %+v (%v), want %d", rep, err, lockedConns*rounds*3)
	}
	// The contention the test is about must actually have happened.
	snap := store.Metrics()
	if m, ok := snap.Get("server.dispatch_wait", nil); !ok || m.Hist == nil || m.Hist.Count == 0 {
		t.Fatalf("server.dispatch_wait missing or empty: %+v ok=%v", m, ok)
	}
}
