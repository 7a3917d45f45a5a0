package server_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/server"
	"repro/internal/server/respclient"
)

func TestMultiExecBasics(t *testing.T) {
	store, addr := start(t, server.Config{})
	c := dial(t, addr)

	// Control-verb errors outside a block.
	if _, err := c.Do("EXEC"); err == nil || !strings.Contains(err.Error(), "EXEC without MULTI") {
		t.Fatalf("EXEC outside MULTI: %v", err)
	}
	if _, err := c.Do("DISCARD"); err == nil || !strings.Contains(err.Error(), "DISCARD without MULTI") {
		t.Fatalf("DISCARD outside MULTI: %v", err)
	}

	// A block: queue, then execute.
	if r, err := c.Do("MULTI"); err != nil || r.Str != "OK" {
		t.Fatalf("MULTI: %+v, %v", r, err)
	}
	if _, err := c.Do("MULTI"); err == nil || !strings.Contains(err.Error(), "can not be nested") {
		t.Fatalf("nested MULTI: %v", err)
	}
	for _, cmd := range [][]string{
		{"SET", "ta", "1"}, {"SET", "tb", "2"}, {"SET", "tc", ""},
		{"GET", "ta"}, {"GET", "missing"}, {"GET", "tc"},
		{"DEL", "tb"}, {"PING"},
	} {
		if r, err := c.Do(cmd...); err != nil || r.Str != "QUEUED" {
			t.Fatalf("queue %v: %+v, %v", cmd, r, err)
		}
	}
	r, err := c.Do("EXEC")
	if err != nil || len(r.Elems) != 8 {
		t.Fatalf("EXEC: %+v, %v", r, err)
	}
	for i := 0; i < 3; i++ {
		if r.Elems[i].Str != "OK" {
			t.Fatalf("EXEC SET reply %d: %+v", i, r.Elems[i])
		}
	}
	if r.Elems[3].Str != "1" {
		t.Fatalf("EXEC GET ta: %+v", r.Elems[3])
	}
	if !r.Elems[4].Nil {
		t.Fatalf("EXEC GET missing not nil: %+v", r.Elems[4])
	}
	// Present-but-empty comes back as an empty bulk, not a nil.
	if r.Elems[5].Nil || r.Elems[5].Str != "" || r.Elems[5].Kind != '$' {
		t.Fatalf("EXEC GET empty value: %+v", r.Elems[5])
	}
	if r.Elems[6].Int != 1 {
		t.Fatalf("EXEC DEL: %+v", r.Elems[6])
	}
	if r.Elems[7].Str != "PONG" {
		t.Fatalf("EXEC PING: %+v", r.Elems[7])
	}

	// The block really applied: tb deleted, ta survives.
	if r, err := c.Do("GET", "tb"); err != nil || !r.Nil {
		t.Fatalf("tb after EXEC: %+v, %v", r, err)
	}
	if r, err := c.Do("GET", "ta"); err != nil || r.Str != "1" {
		t.Fatalf("ta after EXEC: %+v, %v", r, err)
	}

	// DISCARD throws the queue away.
	c.Do("MULTI")
	c.Do("SET", "ta", "overwritten")
	if r, err := c.Do("DISCARD"); err != nil || r.Str != "OK" {
		t.Fatalf("DISCARD: %+v, %v", r, err)
	}
	if r, err := c.Do("GET", "ta"); err != nil || r.Str != "1" {
		t.Fatalf("ta after DISCARD: %+v, %v", r, err)
	}

	// A queue-time error (unknown verb, bad arity) poisons the block.
	c.Do("MULTI")
	if _, err := c.Do("NOSUCH"); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Fatalf("unknown in MULTI: %v", err)
	}
	if r, err := c.Do("SET", "tx", "v"); err != nil || r.Str != "QUEUED" {
		t.Fatalf("queue after poison: %+v, %v", r, err)
	}
	if _, err := c.Do("EXEC"); err == nil || !strings.Contains(err.Error(), "EXECABORT") {
		t.Fatalf("EXEC of poisoned block: %v", err)
	}
	if r, err := c.Do("GET", "tx"); err != nil || !r.Nil {
		t.Fatalf("tx applied despite EXECABORT: %+v, %v", r, err)
	}

	// An empty block yields an empty array.
	c.Do("MULTI")
	if r, err := c.Do("EXEC"); err != nil || len(r.Elems) != 0 || r.Nil {
		t.Fatalf("empty EXEC: %+v, %v", r, err)
	}

	snap := store.Metrics()
	if v, ok := snap.Value("server.multi_exec"); !ok || v < 2 {
		t.Fatalf("server.multi_exec = %v ok=%v, want >= 2", v, ok)
	}
	// The SET run inside EXEC went through PutBatch, the GET run through
	// MultiGet.
	if m, ok := snap.Get("core.batch_ops", map[string]string{"op": "put"}); !ok || m.Value < 1 {
		t.Fatalf("core.batch_ops{op=put} = %+v ok=%v", m, ok)
	}
	if m, ok := snap.Get("core.batch_ops", map[string]string{"op": "get"}); !ok || m.Value < 1 {
		t.Fatalf("core.batch_ops{op=get} = %+v ok=%v", m, ok)
	}
}

// TestMultiQueueCap queues MULTI's cap of 1,024 commands in one pipeline;
// the next one is refused and poisons the block.
func TestMultiQueueCap(t *testing.T) {
	const limit = 1024
	_, addr := start(t, server.Config{})
	c := dial(t, addr)
	c.Do("MULTI")
	for i := 0; i < limit; i++ {
		c.Send("SET", fmt.Sprintf("k%d", i), "v")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < limit; i++ {
		if r, err := c.Receive(); err != nil || r.Str != "QUEUED" {
			t.Fatalf("queue %d: %+v, %v", i, r, err)
		}
	}
	if _, err := c.Do("SET", "over", "v"); err == nil || !strings.Contains(err.Error(), "queue exceeds 1024") {
		t.Fatalf("over-cap queue: %v", err)
	}
	if _, err := c.Do("EXEC"); err == nil || !strings.Contains(err.Error(), "EXECABORT") {
		t.Fatalf("EXEC after cap: %v", err)
	}
}

// TestMultiExecPipelinedAcrossConnections drives whole MULTI blocks as
// single pipelines from several concurrent connections. Each EXEC's
// SET run must coalesce into one PutBatch and its GET run into one
// MultiGet; every reply and the final store contents are verified.
func TestMultiExecPipelinedAcrossConnections(t *testing.T) {
	store, addr := start(t, server.Config{})

	const (
		conns  = 5
		rounds = 20
		nkeys  = 8
	)
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := respclient.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for round := 0; round < rounds; round++ {
				// One pipeline flush carries the whole block.
				c.Send("MULTI")
				for i := 0; i < nkeys; i++ {
					c.Send("SET", fmt.Sprintf("m%d-k%d", ci, i), fmt.Sprintf("r%d-%d", round, i))
				}
				for i := 0; i < nkeys; i++ {
					c.Send("GET", fmt.Sprintf("m%d-k%d", ci, i))
				}
				c.Send("EXEC")
				if err := c.Flush(); err != nil {
					errs <- err
					return
				}
				if r, err := c.Receive(); err != nil || r.Str != "OK" {
					errs <- fmt.Errorf("conn %d round %d MULTI: %+v, %v", ci, round, r, err)
					return
				}
				for i := 0; i < 2*nkeys; i++ {
					if r, err := c.Receive(); err != nil || r.Str != "QUEUED" {
						errs <- fmt.Errorf("conn %d round %d queue %d: %+v, %v", ci, round, i, r, err)
						return
					}
				}
				r, err := c.Receive()
				if err != nil || len(r.Elems) != 2*nkeys {
					errs <- fmt.Errorf("conn %d round %d EXEC: %+v, %v", ci, round, r, err)
					return
				}
				for i := 0; i < nkeys; i++ {
					if r.Elems[i].Str != "OK" {
						errs <- fmt.Errorf("conn %d round %d SET reply %d: %+v", ci, round, i, r.Elems[i])
						return
					}
					// The GETs read their own block's writes: EXEC runs
					// the whole block under one slot hold.
					want := fmt.Sprintf("r%d-%d", round, i)
					if got := r.Elems[nkeys+i].Str; got != want {
						errs <- fmt.Errorf("conn %d round %d GET %d = %q, want %q", ci, round, i, got, want)
						return
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Final contents: every connection's last-round values.
	c := dial(t, addr)
	for ci := 0; ci < conns; ci++ {
		for i := 0; i < nkeys; i++ {
			k := fmt.Sprintf("m%d-k%d", ci, i)
			r, err := c.Do("GET", k)
			if err != nil || r.Str != fmt.Sprintf("r%d-%d", rounds-1, i) {
				t.Fatalf("final GET %s: %+v, %v", k, r, err)
			}
		}
	}

	snap := store.Metrics()
	if v, ok := snap.Value("server.multi_exec"); !ok || v < conns*rounds {
		t.Fatalf("server.multi_exec = %v ok=%v, want >= %d", v, ok, conns*rounds)
	}
	// Each EXEC's SET and GET runs coalesced into one batch op apiece.
	if m, ok := snap.Get("core.batch_ops", map[string]string{"op": "put"}); !ok || m.Value < conns*rounds {
		t.Fatalf("core.batch_ops{op=put} = %+v ok=%v, want >= %d", m, ok, conns*rounds)
	}
	if m, ok := snap.Get("core.batch_ops", map[string]string{"op": "get"}); !ok || m.Value < conns*rounds {
		t.Fatalf("core.batch_ops{op=get} = %+v ok=%v, want >= %d", m, ok, conns*rounds)
	}
	if m, ok := snap.Get("core.batch_size", map[string]string{"op": "put"}); !ok || m.Hist == nil || m.Hist.Count == 0 {
		t.Fatalf("core.batch_size{op=put} missing: %+v ok=%v", m, ok)
	}
}

// TestMultiQueueCopiesArgs is the parser-reuse safety gate: commands
// queued inside a MULTI block outlive their parse frame, and the parser
// arena is rewritten by every subsequent command on the connection. If
// the queue retained the parser's args instead of copying them, the
// second queued SET here (same key/value lengths as the first, so it
// overlays the arena byte-for-byte) would corrupt the first, and EXEC
// would write key2's bytes twice.
func TestMultiQueueCopiesArgs(t *testing.T) {
	_, addr := start(t, server.Config{})
	c := dial(t, addr)

	if r, err := c.Do("MULTI"); err != nil || r.Str != "OK" {
		t.Fatalf("MULTI: %+v, %v", r, err)
	}
	if r, err := c.Do("SET", "key1", "AAAA"); err != nil || r.Str != "QUEUED" {
		t.Fatalf("queue SET key1: %+v, %v", r, err)
	}
	if r, err := c.Do("SET", "key2", "BBBB"); err != nil || r.Str != "QUEUED" {
		t.Fatalf("queue SET key2: %+v, %v", r, err)
	}
	// A queued multi-key verb too: MGET's keys must also survive.
	if r, err := c.Do("MGET", "key1", "key2"); err != nil || r.Str != "QUEUED" {
		t.Fatalf("queue MGET: %+v, %v", r, err)
	}
	r, err := c.Do("EXEC")
	if err != nil || len(r.Elems) != 3 {
		t.Fatalf("EXEC: %+v, %v", r, err)
	}
	mget := r.Elems[2]
	if len(mget.Elems) != 2 || mget.Elems[0].Str != "AAAA" || mget.Elems[1].Str != "BBBB" {
		t.Fatalf("EXEC MGET saw corrupted queue: %+v", mget)
	}
	for k, want := range map[string]string{"key1": "AAAA", "key2": "BBBB"} {
		if r, err := c.Do("GET", k); err != nil || r.Str != want {
			t.Fatalf("GET %s = %+v (%v), want %q", k, r, err, want)
		}
	}
}
