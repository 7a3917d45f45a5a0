package bench

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/server/respclient"
	"repro/internal/shard"
	"repro/internal/ycsb"
)

// WireResult is one wire-phase measurement as seen from the client side.
// Virtual time lives in the server's store clocks, so callers that own
// the store bracket RunWire with wireClockMarks to get makespan.
type WireResult struct {
	Ops     int64 // commands issued and acknowledged
	Errors  int64 // RESP error replies (transport errors abort instead)
	WallNS  int64 // client-observed wall time for the whole phase
	MinConn int64 // ops on the least-loaded connection (sanity)
}

// RunWire drives one YCSB workload phase against a RESP server at addr:
// conns connections, each a goroutine running the managed Go/Drain
// pipeline with depth commands in flight. Ops are split evenly across
// connections and every reply is consumed; RESP error replies are
// counted, transport errors abort the phase. The ycsb.Shared counter is
// shared across connections, so a Load phase inserts each key exactly
// once no matter how the split rounds.
func RunWire(addr string, w ycsb.Workload, rc RunConfig, conns, depth int) (WireResult, error) {
	rc.applyDefaults()
	if conns < 1 {
		conns = 1
	}
	if depth < 1 {
		depth = 1
	}
	cfg, totalOps := phase(w, rc)
	shared := ycsb.NewShared(cfg)

	perConn := totalOps / conns
	if perConn == 0 {
		perConn = 1
	}

	var (
		wg      sync.WaitGroup
		ops     atomic.Int64
		respErr atomic.Int64
		minConn atomic.Int64
	)
	minConn.Store(int64(perConn))
	errs := make(chan error, conns)
	start := time.Now()
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
			c.Timeout = 30 * time.Second
			c.MaxInFlight = depth
			c.OnReply = func(r respclient.Reply) error {
				if r.Kind == '-' {
					respErr.Add(1)
				}
				return nil
			}
			gen := ycsb.NewGenerator(cfg, shared, rc.Seed+uint64(ci)*7919)
			var sent int64
			for i := 0; i < perConn; i++ {
				op := gen.Next()
				var err error
				switch op.Kind {
				case ycsb.OpInsert, ycsb.OpUpdate:
					err = c.Go("SET", string(op.Key), string(gen.Value(keyID(op.Key))))
				case ycsb.OpRead:
					err = c.Go("GET", string(op.Key))
				case ycsb.OpScan:
					err = c.Go("SCAN", string(op.Key), strconv.Itoa(op.ScanLen))
				}
				if err != nil {
					errs <- fmt.Errorf("wire conn %d op %d: %w", ci, i, err)
					return
				}
				sent++
			}
			if err := c.Drain(); err != nil {
				errs <- fmt.Errorf("wire conn %d drain: %w", ci, err)
				return
			}
			ops.Add(sent)
			for {
				cur := minConn.Load()
				if sent >= cur || minConn.CompareAndSwap(cur, sent) {
					break
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return WireResult{}, err
	}
	return WireResult{
		Ops:     ops.Load(),
		Errors:  respErr.Load(),
		WallNS:  time.Since(start).Nanoseconds(),
		MinConn: minConn.Load(),
	}, nil
}

// wireClockMarks snapshots every router thread's virtual clock frontier,
// folding any drained-but-unsynced async makespan in first. Only safe
// while no command is in flight — i.e. before clients connect or after
// every pipeline has drained and the server goroutines are parked in
// ReadCommand.
func wireClockMarks(s *shard.Store) []int64 {
	marks := make([]int64, s.NumThreads())
	for i := range marks {
		th := s.Thread(i)
		th.Flush()
		marks[i] = th.Clk.Now()
	}
	return marks
}

// wireMakespan is the max per-thread clock advance between two marks —
// the virtual wall time of the bracketed phase, directly comparable to
// Result.VirtualNS from the in-process runner.
func wireMakespan(before, after []int64) int64 {
	var max int64
	for i := range after {
		if d := after[i] - before[i]; d > max {
			max = d
		}
	}
	return max
}

// wireServer attaches a RESP server to a store on an ephemeral loopback
// listener and returns its address plus a stop function.
func wireServer(s *shard.Store) (addr string, stop func()) {
	srv := server.New(s, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	return ln.Addr().String(), func() {
		if err := srv.Shutdown(10 * time.Second); err != nil {
			panic(err)
		}
		if err := <-serveErr; err != nil {
			panic(err)
		}
	}
}

// Wire measures the full wire path — RESP parse, dispatch, reply encode
// — against the in-process harness on the same engine: YCSB-A through a
// loopback RESP server at increasing connection counts, in virtual time
// (the served store's thread clocks, bracketed while the pipelines are
// quiescent), next to an in-process pipelined run at matching
// concurrency. The wire column scaling with connections is the
// contention-free-dispatch signal: with the per-slot mutex fan-in,
// connections sharing a thread slot serialized and the curve was flat.
func Wire(rc RunConfig) Table {
	rc.applyDefaults()
	depth := rc.Pipeline
	if depth <= 1 {
		depth = 16
	}
	t := Table{
		Title:  "Wire path: RESP server YCSB-A throughput vs connections (Kops/sec, virtual time)",
		Header: []string{"conns", "wire Kops", "speedup", "in-proc Kops", "wire/in-proc"},
		Notes: []string{
			fmt.Sprintf("pipelined respclient, %d commands in flight per connection", depth),
			"wire Kops uses the served store's virtual clocks (makespan across threads); client wall time is not comparable",
			"in-proc is the same store driven directly at matching concurrency (threads = min(conns, store threads))",
		},
	}
	var base float64
	for _, conns := range []int{1, 2, 4, 8} {
		st, _ := loaded(EnginePrism, rc)
		ps := st.(*engine.PrismStore)
		addr, stop := wireServer(ps.S)

		marks := wireClockMarks(ps.S)
		res, err := RunWire(addr, ycsb.WorkloadA, rc, conns, depth)
		if err != nil {
			panic(err)
		}
		if res.Errors != 0 {
			panic(fmt.Sprintf("bench: wire YCSB-A at %d conns: %d of %d commands failed", conns, res.Errors, res.Ops))
		}
		span := wireMakespan(marks, wireClockMarks(ps.S))

		wireKops := kops(res.Ops, span)
		rc.Metrics.Capture(st, EnginePrism, fmt.Sprintf("wire-%dconns", conns), nil)

		rcp := rc
		rcp.Pipeline = depth
		rcp.Threads = conns
		inproc := Run(st, EnginePrism, ycsb.WorkloadA, rcp).mustSucceed().KOpsPerSec()

		stop()
		st.Close()

		if conns == 1 {
			base = wireKops
		}
		ratio := "-"
		if inproc > 0 {
			ratio = f2(wireKops / inproc)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", conns),
			f1(wireKops), fmt.Sprintf("%.2fx", wireKops/base),
			f1(inproc), ratio,
		})
	}
	return t
}
