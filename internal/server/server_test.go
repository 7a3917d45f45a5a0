package server_test

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/respclient"
	"repro/internal/shard"
)

// start opens a small store, attaches a server, and serves on an
// ephemeral loopback port. Cleanup drains the server and closes the
// store.
func start(t *testing.T, cfg server.Config) (*shard.Store, string) {
	t.Helper()
	store, err := shard.Open(core.Options{NumThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(store, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Shutdown(5 * time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
		store.Close()
	})
	return store, ln.Addr().String()
}

func dial(t *testing.T, addr string) *respclient.Client {
	t.Helper()
	c, err := respclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBasicCommands(t *testing.T) {
	_, addr := start(t, server.Config{})
	c := dial(t, addr)

	if r, err := c.Do("PING"); err != nil || r.Str != "PONG" {
		t.Fatalf("PING: %+v, %v", r, err)
	}
	if r, err := c.Do("ECHO", "hello"); err != nil || r.Str != "hello" {
		t.Fatalf("ECHO: %+v, %v", r, err)
	}
	if r, err := c.Do("SET", "k", "v1"); err != nil || r.Str != "OK" {
		t.Fatalf("SET: %+v, %v", r, err)
	}
	if r, err := c.Do("GET", "k"); err != nil || r.Str != "v1" {
		t.Fatalf("GET: %+v, %v", r, err)
	}
	if r, err := c.Do("GET", "missing"); err != nil || !r.Nil {
		t.Fatalf("GET missing: %+v, %v", r, err)
	}
	if r, err := c.Do("EXISTS", "k", "missing"); err != nil || r.Int != 1 {
		t.Fatalf("EXISTS: %+v, %v", r, err)
	}
	if r, err := c.Do("DEL", "k", "missing"); err != nil || r.Int != 1 {
		t.Fatalf("DEL: %+v, %v", r, err)
	}
	if r, err := c.Do("GET", "k"); err != nil || !r.Nil {
		t.Fatalf("GET after DEL: %+v, %v", r, err)
	}
	if r, err := c.Do("DBSIZE"); err != nil || r.Int != 0 {
		t.Fatalf("DBSIZE: %+v, %v", r, err)
	}
	if _, err := c.Do("NOSUCH", "x"); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Fatalf("unknown command: %v", err)
	}
	if _, err := c.Do("GET"); err == nil || !strings.Contains(err.Error(), "wrong number") {
		t.Fatalf("arity error: %v", err)
	}
}

func TestMultiKeyAndScan(t *testing.T) {
	_, addr := start(t, server.Config{})
	c := dial(t, addr)

	if r, err := c.Do("MSET", "a", "1", "b", "2", "c", "3"); err != nil || r.Str != "OK" {
		t.Fatalf("MSET: %+v, %v", r, err)
	}
	r, err := c.Do("MGET", "a", "nope", "c")
	if err != nil || len(r.Elems) != 3 {
		t.Fatalf("MGET: %+v, %v", r, err)
	}
	if r.Elems[0].Str != "1" || !r.Elems[1].Nil || r.Elems[2].Str != "3" {
		t.Fatalf("MGET values: %+v", r.Elems)
	}
	r, err = c.Do("SCAN", "a", "10")
	if err != nil || len(r.Elems) != 6 {
		t.Fatalf("SCAN: %+v, %v", r, err)
	}
	got := map[string]string{}
	for i := 0; i < len(r.Elems); i += 2 {
		got[r.Elems[i].Str] = r.Elems[i+1].Str
	}
	want := map[string]string{"a": "1", "b": "2", "c": "3"}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("SCAN results %v, want %v", got, want)
		}
	}
	// SCAN from a midpoint respects key order.
	r, err = c.Do("SCAN", "b", "1")
	if err != nil || len(r.Elems) != 2 || r.Elems[0].Str != "b" {
		t.Fatalf("SCAN b 1: %+v, %v", r, err)
	}
}

// TestEndToEndPipelinedWorkload is the acceptance test: ≥4 concurrent
// connections each drive a pipelined mixed GET/SET/DEL workload, every
// reply is verified, final store contents are checked, and the server.*
// metrics must show up both in Store.Metrics() and over the wire in
// INFO.
func TestEndToEndPipelinedWorkload(t *testing.T) {
	store, addr := start(t, server.Config{})

	const (
		conns  = 6
		rounds = 50
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
				// One pipeline: SET a batch, read it back, delete the odd
				// keys, re-check one deleted key.
				var sent int
				for i := 0; i < 4; i++ {
					k := fmt.Sprintf("c%d-r%d-k%d", ci, round, i)
					c.Send("SET", k, fmt.Sprintf("v%d-%d", round, i))
					c.Send("GET", k)
					sent += 2
				}
				for i := 1; i < 4; i += 2 {
					c.Send("DEL", fmt.Sprintf("c%d-r%d-k%d", ci, round, i))
					sent++
				}
				c.Send("GET", fmt.Sprintf("c%d-r%d-k1", ci, round))
				sent++
				if err := c.Flush(); err != nil {
					errs <- err
					return
				}
				for i := 0; i < sent; i++ {
					r, err := c.Receive()
					if err != nil {
						errs <- fmt.Errorf("conn %d round %d reply %d: %w", ci, round, i, err)
						return
					}
					if err := r.Err(); err != nil {
						errs <- fmt.Errorf("conn %d round %d reply %d: %w", ci, round, i, err)
						return
					}
					switch {
					case i < 8 && i%2 == 0: // SET
						if r.Str != "OK" {
							errs <- fmt.Errorf("SET reply %+v", r)
							return
						}
					case i < 8: // GET of a just-set key
						want := fmt.Sprintf("v%d-%d", round, i/2)
						if r.Str != want {
							errs <- fmt.Errorf("GET = %q, want %q", r.Str, want)
							return
						}
					case i < 10: // DEL
						if r.Int != 1 {
							errs <- fmt.Errorf("DEL reply %+v", r)
							return
						}
					default: // GET of a deleted key
						if !r.Nil {
							errs <- fmt.Errorf("deleted key still present: %+v", r)
							return
						}
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

	// Final contents: per connection and round, keys 0 and 2 survive,
	// keys 1 and 3 were deleted.
	c := dial(t, addr)
	if r, err := c.Do("DBSIZE"); err != nil || r.Int != conns*rounds*2 {
		t.Fatalf("DBSIZE = %+v (%v), want %d", r, err, conns*rounds*2)
	}
	for ci := 0; ci < conns; ci++ {
		for _, i := range []int{0, 2} {
			k := fmt.Sprintf("c%d-r%d-k%d", ci, rounds-1, i)
			r, err := c.Do("GET", k)
			if err != nil || r.Str != fmt.Sprintf("v%d-%d", rounds-1, i) {
				t.Fatalf("final GET %s: %+v, %v", k, r, err)
			}
		}
	}

	// server.* metrics in the store snapshot.
	snap := store.Metrics()
	if v, ok := snap.Value("server.connections_total"); !ok || v < conns {
		t.Fatalf("server.connections_total = %v ok=%v, want >= %d", v, ok, conns)
	}
	if got := snap.Sum("server.commands"); got < conns*rounds*11 {
		t.Fatalf("server.commands = %v, want >= %d", got, conns*rounds*11)
	}
	if m, ok := snap.Get("server.commands", map[string]string{"verb": "SET"}); !ok || m.Value < conns*rounds*4 {
		t.Fatalf("server.commands{verb=SET} = %+v ok=%v", m, ok)
	}
	for _, name := range []string{"server.bytes_in", "server.bytes_out"} {
		if v, ok := snap.Value(name); !ok || v <= 0 {
			t.Fatalf("%s = %v ok=%v, want > 0", name, v, ok)
		}
	}
	// MGET takes the locked synchronous path, which is what feeds the
	// virtual-time histogram (async verbs are timed by cmd_latency).
	if r, err := c.Do("MGET", fmt.Sprintf("c0-r%d-k0", rounds-1), "nope"); err != nil || len(r.Elems) != 2 {
		t.Fatalf("MGET: %+v, %v", r, err)
	}
	snap = store.Metrics()
	if m, ok := snap.Get("server.cmd_virtual_ns", nil); !ok || m.Hist == nil || m.Hist.Count == 0 {
		t.Fatalf("server.cmd_virtual_ns missing or empty: %+v ok=%v", m, ok)
	}
	if m, ok := snap.Get("server.cmd_wall_ns", nil); !ok || m.Hist == nil || m.Hist.Count == 0 {
		t.Fatalf("server.cmd_wall_ns missing or empty: %+v ok=%v", m, ok)
	}
	// Every wire command lands in exactly one cmd_latency class; the
	// GET/SET/DEL workload must populate read and write.
	for _, class := range []string{"read", "write"} {
		m, ok := snap.Get("server.cmd_latency", map[string]string{"class": class})
		if !ok || m.Hist == nil || m.Hist.Count == 0 {
			t.Fatalf("server.cmd_latency{class=%s} missing or empty: %+v ok=%v", class, m, ok)
		}
	}
	if m, ok := snap.Get("server.dispatch_wait", nil); !ok || m.Hist == nil || m.Hist.Count == 0 {
		t.Fatalf("server.dispatch_wait missing or empty: %+v ok=%v", m, ok)
	}

	// The same metrics over the wire via INFO.
	r, err := c.Do("INFO")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"server.connections_total", "server.commands{verb=SET}",
		"server.bytes_in", "server.cmd_virtual_ns", "core.ops{op=put}"} {
		if !strings.Contains(r.Str, want) {
			t.Fatalf("INFO output missing %q:\n%s", want, r.Str)
		}
	}
}

// A malformed frame gets one error reply, closes the connection, and
// bumps server.parse_errors.
func TestProtocolErrorClosesConnection(t *testing.T) {
	store, addr := start(t, server.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("*1\r\n$99999999999\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("no error reply: %v", err)
	}
	if !strings.HasPrefix(string(buf[:n]), "-ERR protocol error") {
		t.Fatalf("reply %q", buf[:n])
	}
	// The server closes after the error reply.
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection still open after protocol error")
	}
	if v, ok := store.Metrics().Value("server.parse_errors"); !ok || v != 1 {
		t.Fatalf("server.parse_errors = %v ok=%v, want 1", v, ok)
	}
}

func TestMaxConnsRejectsExcess(t *testing.T) {
	store, addr := start(t, server.Config{MaxConns: 2})
	c1, c2 := dial(t, addr), dial(t, addr)
	if _, err := c1.Do("PING"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Do("PING"); err != nil {
		t.Fatal(err)
	}
	c3, err := respclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if _, err := c3.Do("PING"); err == nil || !strings.Contains(err.Error(), "max connections") {
		t.Fatalf("over-limit connection: %v", err)
	}
	if v, ok := store.Metrics().Value("server.connections_rejected"); !ok || v != 1 {
		t.Fatalf("server.connections_rejected = %v ok=%v, want 1", v, ok)
	}
}

func TestIdleTimeoutClosesConnection(t *testing.T) {
	_, addr := start(t, server.Config{IdleTimeout: 50 * time.Millisecond})
	c := dial(t, addr)
	if _, err := c.Do("PING"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if _, err := c.Do("PING"); err == nil {
		t.Fatal("idle connection not closed")
	}
}

// Shutdown must finish the already-buffered pipeline before closing
// (drain), and reject connections arriving during the drain.
func TestGracefulShutdownDrainsPipeline(t *testing.T) {
	store, err := shard.Open(core.Options{NumThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := server.New(store, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	c, err := respclient.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One round trip first: Dial returns once the kernel completes the
	// handshake, which can be before Serve has accepted the connection,
	// and Shutdown rightly refuses connections it has not admitted yet.
	if _, err := c.Do("PING"); err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		c.Send("SET", fmt.Sprintf("k%d", i), "v")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	// Every pipelined SET must have been executed and answered.
	var acked int
	for i := 0; i < n; i++ {
		r, err := c.Receive()
		if err != nil {
			break
		}
		if r.Str == "OK" {
			acked++
		}
	}
	if acked != n {
		t.Fatalf("drained %d of %d pipelined commands", acked, n)
	}
	if store.Len() != n {
		t.Fatalf("store has %d keys, want %d", store.Len(), n)
	}
}

// TestShardedCrossShardCommands runs the multi-key surface against a
// 4-shard store: MSET/MGET fan out across shards, SCAN k-way merges the
// per-shard streams, and MULTI/EXEC queues execute atomically per
// connection — all transparently through the router.
func TestShardedCrossShardCommands(t *testing.T) {
	store, err := shard.Open(core.Options{NumThreads: 4, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(store, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Shutdown(5 * time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
		store.Close()
	})
	c := dial(t, ln.Addr().String())

	// MSET wide enough that jump placement scatters it over every shard.
	const n = 64
	args := make([]string, 0, 1+2*n)
	args = append(args, "MSET")
	for i := 0; i < n; i++ {
		args = append(args, fmt.Sprintf("sk%04d", i), fmt.Sprintf("sv%04d", i))
	}
	if r, err := c.Do(args...); err != nil || r.Str != "OK" {
		t.Fatalf("MSET: %+v, %v", r, err)
	}
	touched := 0
	for j := 0; j < store.NumShards(); j++ {
		if store.Shard(j).Len() > 0 {
			touched++
		}
	}
	if touched < 2 {
		t.Fatalf("MSET of %d keys landed on %d shards — not a cross-shard test", n, touched)
	}

	// MGET in input order with interleaved misses.
	mget := []string{"MGET"}
	for i := 0; i < n; i += 2 {
		mget = append(mget, fmt.Sprintf("sk%04d", i), fmt.Sprintf("missing%04d", i))
	}
	r, err := c.Do(mget...)
	if err != nil || len(r.Elems) != n {
		t.Fatalf("MGET: %+v, %v", r, err)
	}
	for i := 0; i < n; i += 2 {
		if got := r.Elems[i].Str; got != fmt.Sprintf("sv%04d", i) {
			t.Fatalf("MGET[%d] = %q, want sv%04d", i, got, i)
		}
		if !r.Elems[i+1].Nil {
			t.Fatalf("MGET[%d] = %+v, want nil", i+1, r.Elems[i+1])
		}
	}

	// SCAN must return the k-way-merged global key order.
	r, err = c.Do("SCAN", "sk", fmt.Sprint(n))
	if err != nil || len(r.Elems) != 2*n {
		t.Fatalf("SCAN: %d elems, %v", len(r.Elems), err)
	}
	for i := 0; i < n; i++ {
		if got := r.Elems[2*i].Str; got != fmt.Sprintf("sk%04d", i) {
			t.Fatalf("SCAN key[%d] = %q, want sk%04d", i, got, i)
		}
	}

	// MULTI/EXEC batching SETs and a cross-shard MGET.
	if r, err := c.Do("MULTI"); err != nil || r.Str != "OK" {
		t.Fatalf("MULTI: %+v, %v", r, err)
	}
	for i := 0; i < 8; i++ {
		if r, err := c.Do("SET", fmt.Sprintf("tx%02d", i), fmt.Sprintf("txv%02d", i)); err != nil || r.Str != "QUEUED" {
			t.Fatalf("queued SET: %+v, %v", r, err)
		}
	}
	if r, err := c.Do("MGET", "tx00", "tx07", "sk0001"); err != nil || r.Str != "QUEUED" {
		t.Fatalf("queued MGET: %+v, %v", r, err)
	}
	r, err = c.Do("EXEC")
	if err != nil || len(r.Elems) != 9 {
		t.Fatalf("EXEC: %+v, %v", r, err)
	}
	for i := 0; i < 8; i++ {
		if r.Elems[i].Str != "OK" {
			t.Fatalf("EXEC[%d] = %+v", i, r.Elems[i])
		}
	}
	last := r.Elems[8]
	if len(last.Elems) != 3 || last.Elems[0].Str != "txv00" ||
		last.Elems[1].Str != "txv07" || last.Elems[2].Str != "sv0001" {
		t.Fatalf("EXEC MGET = %+v", last.Elems)
	}

	// Router metrics must record the fan-out.
	snap := store.Metrics()
	if got := snap.Sum("shard.cross_batches"); got < 1 {
		t.Fatalf("shard.cross_batches = %v, want >= 1", got)
	}
	if got := snap.Sum("shard.scan_merges"); got < 1 {
		t.Fatalf("shard.scan_merges = %v, want >= 1", got)
	}
}
