package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	prism "repro"
	"repro/internal/server"
	"repro/internal/server/respclient"
)

// stallLimit is how long a workload may go without completing a request
// before the watchdog abandons it.
var stallLimit = 30 * time.Second

// errAbandoned reports that the watchdog gave up on a phase: its
// clients may still be stuck inside the store, so the caller must not
// touch the store again.
var errAbandoned = errors.New("no request completed within the stall limit; workload abandoned")

// breakChecks, set only by the smoke test, makes every value check fail
// so that the failure path through to the exit code can be exercised.
var breakChecks bool

// env is one opened, loaded and warmed store with its clients.
type env struct {
	w *workload

	store *prism.Store
	keys  keyTable

	// issued[slot(k)] is the highest sequence the owner of key k has
	// sent; acked[slot(k)] the highest the store has acknowledged. Only
	// the owner writes either; any client may read acked.
	issued []uint64
	acked  []atomic.Uint64

	srv      *server.Server
	serveErr chan error

	cl []*client

	epoch   time.Time   // wall clock zero of this env
	abandon atomic.Bool // set by the watchdog; clients stop at their next check
}

// slot places the keys of one owner next to each other, so that two
// clients acknowledging neighbouring keys do not share a cache line.
func (e *env) slot(k uint32) int {
	per := (e.w.keys + clients - 1) / clients
	return int(k%clients)*per + int(k/clients)
}

func (e *env) now() int64 { return int64(time.Since(e.epoch)) }

type client struct {
	e   *env
	id  int
	gen *generator
	th  *prism.Thread      // in-process workloads
	rc  *respclient.Client // wire workloads
	val []byte             // value scratch

	// Pipelined requests awaiting their reply, oldest first.
	fifo       []inflight
	head, tail int

	ops      int64 // requests completed; owner only
	failed   atomic.Int64
	progress atomic.Int64 // ops, published every few requests for the watchdog

	settle func(f *inflight, ok bool) // runPipelined's per-reply bookkeeping
}

type inflight struct {
	o    op
	seq  uint64 // put: sequence written; get: sequence acknowledged when sent
	t0   int64
	span int32
}

// phase is one timed stretch of requests by every client.
type phase struct {
	deadline int64         // env wall ns; 0 = none
	maxOps   int           // per client; 0 = unlimited
	window   int           // wire-pipelined: Drain every window requests (0 = only at the end)
	lat      [][]uint32    // per client: wall ns of each request, while there is room
	nlat     []int         // per client: how many of lat the phase filled
	slabs    []*slab       // non-nil = traced
	slice    time.Duration // when > 0, also measure every stretch of this length
}

// open builds the store (and, for wire workloads, the server and its
// connections), loads every key and warms up.
func open(wi int, seed uint64) (*env, error) {
	w := &workloads[wi]
	opt := w.opt
	opt.Seed = seed
	st, err := prism.Open(opt)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", w.name, err)
	}
	e := &env{
		w: w, store: st,
		keys:   newKeyTable(w.keys),
		issued: make([]uint64, w.keys+clients),
		acked:  make([]atomic.Uint64, w.keys+clients),
		epoch:  time.Now(),
	}
	for i := 0; i < clients; i++ {
		e.cl = append(e.cl, &client{
			e: e, id: i,
			gen:  newGenerator(seed, wi, i, clients, w.keys, w.mix),
			th:   st.Thread(i),
			val:  make([]byte, valueSize),
			fifo: make([]inflight, w.depth+1),
		})
	}
	// The load is in-process on every workload: it is set-up, not the
	// path under test.
	if err := e.each(func(c *client) { c.sweep(true) }, 0, nil); err != nil {
		return e, err
	}
	if w.wire {
		if err := e.serve(); err != nil {
			return e, err
		}
	}
	if w.sweepWrites {
		if err := e.each(func(c *client) { c.sweep(true) }, 0, nil); err != nil {
			return e, err
		}
	}
	if w.sweepReads {
		if err := e.each(func(c *client) { c.sweep(false) }, 0, nil); err != nil {
			return e, err
		}
	}
	if w.warmOps > 0 {
		if _, err := e.run(&phase{maxOps: w.warmOps}); err != nil {
			return e, err
		}
	}
	if n := e.failed(); n > 0 {
		return e, fmt.Errorf("%s: %d requests failed during set-up", w.name, n)
	}
	return e, nil
}

func (e *env) serve() error {
	e.srv = server.New(e.store, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.serveErr = make(chan error, 1)
	go func() { e.serveErr <- e.srv.Serve(ln) }()
	for _, c := range e.cl {
		rc, err := respclient.Dial(ln.Addr().String())
		if err != nil {
			return err
		}
		rc.Timeout = stallLimit
		rc.MaxInFlight = e.w.depth
		rc.OnReply = c.onReply
		c.rc = rc
		c.th = nil
	}
	return nil
}

// stopServer closes the connections and the server; the store stays
// open. The clients fall back to in-process threads, for the read-back
// after recovery.
func (e *env) stopServer() error {
	if e.srv == nil {
		return nil
	}
	for _, c := range e.cl {
		if c.rc != nil {
			c.rc.Close()
			c.rc = nil
		}
		c.th = e.store.Thread(c.id)
	}
	err := e.srv.Shutdown(10 * time.Second)
	if serr := <-e.serveErr; err == nil {
		err = serr
	}
	e.srv = nil
	return err
}

func (e *env) close() {
	if err := e.stopServer(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: server shutdown:", err)
	}
	e.store.Close()
}

func (e *env) failed() (n int64) {
	for _, c := range e.cl {
		n += c.failed.Load()
	}
	return n
}

func (e *env) opsDone() (n int64) {
	for _, c := range e.cl {
		n += c.ops
	}
	return n
}

// each runs fn on every client concurrently under the watchdog, which
// gives up once no client has published progress for stallLimit. sample,
// when not nil, is called every period with the requests published so
// far, and once more when the clients are done.
func (e *env) each(fn func(c *client), period time.Duration, sample func(ops int64)) error {
	var wg sync.WaitGroup
	for _, c := range e.cl {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	progress := func() (p int64) {
		for _, c := range e.cl {
			p += c.progress.Load()
		}
		return p
	}
	if sample == nil {
		period, sample = stallLimit/30, func(int64) {}
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	var last int64 = -1
	lastMove := time.Now()
	for {
		select {
		case <-done:
			sample(progress())
			return nil
		case <-tick.C:
		}
		p := progress()
		sample(p)
		if p != last {
			last, lastMove = p, time.Now()
		} else if time.Since(lastMove) >= stallLimit {
			e.abandon.Store(true)
			return errAbandoned
		}
	}
}

// measured is what one phase cost, as seen from outside the store.
type measured struct {
	ops        int64
	wallNS     int64
	virtNS     int64 // makespan: the largest advance of any client's simulated clock
	cpuNS      int64 // user+system CPU of the whole process
	mallocs    uint64
	allocBytes uint64
	slices     []slice // when the phase asked for them
}

// slice is one stretch of a phase: requests completed, wall and CPU time.
type slice struct{ ops, wallNS, cpuNS int64 }

func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func heapCounts() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// virtMarks folds finished asynchronous work into every thread's clock
// and returns the clocks. Only meaningful while no request is in flight.
func (e *env) virtMarks() []int64 {
	marks := make([]int64, clients)
	for i := range marks {
		th := e.store.Thread(i)
		th.Flush()
		marks[i] = th.Clk.Now()
	}
	return marks
}

// run executes one phase on every client and measures it.
func (e *env) run(p *phase) (measured, error) {
	ops0 := e.opsDone()
	virt0 := e.virtMarks()
	mallocs0, bytes0 := heapCounts()
	cpu0 := cpuNS()
	t0 := e.now()
	if p.deadline > 0 {
		p.deadline += t0
	}
	var m measured
	var sample func(int64)
	if p.slice > 0 {
		prev := slice{ops: ops0, wallNS: t0, cpuNS: cpu0}
		sample = func(ops int64) {
			cur := slice{ops: ops, wallNS: e.now(), cpuNS: cpuNS()}
			m.slices = append(m.slices, slice{cur.ops - prev.ops, cur.wallNS - prev.wallNS, cur.cpuNS - prev.cpuNS})
			prev = cur
		}
	}
	err := e.each(func(c *client) { c.run(p) }, p.slice, sample)
	m.wallNS, m.cpuNS = e.now()-t0, cpuNS()-cpu0
	if err != nil {
		return m, err // abandoned: the clients may still be inside the store
	}
	mallocs1, bytes1 := heapCounts()
	m.mallocs, m.allocBytes = mallocs1-mallocs0, bytes1-bytes0
	for i, v := range e.virtMarks() {
		m.virtNS = max(m.virtNS, v-virt0[i])
	}
	m.ops = e.opsDone() - ops0
	return m, nil
}

// done counts one finished request and, every 64th, publishes progress
// and reports whether the phase is over.
func (c *client) done(p *phase, ok bool) (stop bool) {
	if !ok {
		c.failed.Add(1)
	}
	c.ops++
	if c.ops&63 != 0 {
		return false
	}
	c.progress.Store(c.ops)
	return p != nil && p.deadline > 0 && c.e.now() >= p.deadline || c.e.abandon.Load()
}

// sweep writes (or reads) every key of the client's partition once, in
// key order, in-process.
func (c *client) sweep(write bool) {
	e := c.e
	th := e.store.Thread(c.id)
	for k := uint32(c.id); k < uint32(e.w.keys); k += clients {
		var ok bool
		if write {
			ok = c.putInProc(th, k)
		} else {
			ok = c.getInProc(th, k)
		}
		if c.done(nil, ok) {
			return
		}
	}
	c.progress.Store(c.ops)
}

func (c *client) putInProc(th *prism.Thread, k uint32) bool {
	s := c.e.slot(k)
	c.e.issued[s]++
	seq := c.e.issued[s]
	fillValue(c.val, k, seq)
	if err := th.Put(c.e.keys.bytes(k), c.val); err != nil {
		return false
	}
	c.e.acked[s].Store(seq)
	return true
}

func (c *client) getInProc(th *prism.Thread, k uint32) bool {
	floor := c.e.acked[c.e.slot(k)].Load()
	v, err := th.Get(c.e.keys.bytes(k))
	return err == nil && fresh(v, k, floor)
}

// fresh reports whether v is an intact value of key k no older than
// sequence floor.
func fresh(v []byte, k uint32, floor uint64) bool {
	seq, ok := checkValue(v, k)
	return ok && seq >= floor && !breakChecks
}

func (c *client) scanInProc(th *prism.Thread, o op) bool {
	prev := int64(o.key) - 1
	rows, good := 0, true
	err := th.Scan(c.e.keys.bytes(o.key), o.scanLen, func(kv prism.KV) bool {
		rows++
		id, ok := keyID(kv.Key)
		if !ok || int64(id) <= prev || !fresh(kv.Value, id, 0) {
			good = false
		}
		prev = int64(id)
		return true
	})
	// Every key is loaded and none is ever deleted, so a scan is short
	// only at the end of the key space.
	return err == nil && good && rows == min(o.scanLen, c.e.w.keys-int(o.key))
}

// run executes the client's share of phase p.
func (c *client) run(p *phase) {
	var lat []uint32
	if p.lat != nil {
		lat = p.lat[c.id]
	}
	var sl *slab
	if p.slabs != nil {
		sl = p.slabs[c.id]
		sl.spans[phaseSpan].wallStart = c.e.now()
	}
	if c.rc != nil && c.e.w.depth > 1 {
		c.runPipelined(p, lat, sl)
	} else {
		c.runClosed(p, lat, sl)
	}
	if sl != nil {
		sl.spans[phaseSpan].wallEnd = c.e.now()
	}
	c.progress.Store(c.ops)
}

// runClosed sends one request at a time, in-process or over the wire.
func (c *client) runClosed(p *phase, lat []uint32, sl *slab) {
	e := c.e
	// The clock is read per request only when a latency sample or a span
	// wants it.
	timed := lat != nil || sl != nil
	var last int64
	if timed {
		last = e.now()
	}
	for i := 0; p.maxOps == 0 || i < p.maxOps; i++ {
		o := c.gen.next()
		var ok bool
		var v0, v1 int64
		if c.rc != nil {
			ok = c.doWire(o)
		} else {
			v0 = c.th.Clk.Now()
			switch o.kind {
			case opPut:
				ok = c.putInProc(c.th, o.key)
			case opGet:
				ok = c.getInProc(c.th, o.key)
			case opScan:
				ok = c.scanInProc(c.th, o)
			}
			v1 = c.th.Clk.Now()
		}
		if timed {
			now := e.now()
			if sl != nil {
				sl.add(span{kind: o.kind, ok: ok, parent: phaseSpan,
					wallStart: last, wallEnd: now, virtStart: v0, virtEnd: v1})
			}
			if i < len(lat) {
				lat[i] = clampNS(now - last)
				p.nlat[c.id] = i + 1
			}
			last = now
		}
		if c.done(p, ok) {
			break
		}
	}
}

func clampNS(d int64) uint32 { return uint32(min(d, math.MaxUint32)) }

// doWire sends one command and waits for its reply.
func (c *client) doWire(o op) bool {
	e := c.e
	s := e.slot(o.key)
	if o.kind == opPut {
		e.issued[s]++
		seq := e.issued[s]
		fillValue(c.val, o.key, seq)
		r, err := c.rc.Do("SET", e.keys.str(o.key), lend(c.val))
		if err != nil || r.Str != "OK" {
			return false
		}
		e.acked[s].Store(seq)
		return true
	}
	floor := e.acked[s].Load()
	r, err := c.rc.Do("GET", e.keys.str(o.key))
	return err == nil && !r.Nil && fresh(strBytes(r.Str), o.key, floor)
}

// lend passes the scratch value to the RESP client as a string without
// copying it: the client copies its arguments into the socket buffer
// before it returns, and the benchmark's own garbage stays out of
// allocs_per_op.
func lend(v []byte) string { return unsafe.String(&v[0], len(v)) }

func strBytes(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// runPipelined keeps depth commands in flight with Go. It settles them
// with Drain at the end of every window of p.window commands, or only
// at the end of the phase when p.window is 0.
func (c *client) runPipelined(p *phase, lat []uint32, sl *slab) {
	e := c.e
	c.head, c.tail = 0, 0
	nlat, stop := 0, false
	c.settle = func(f *inflight, ok bool) {
		now := e.now()
		if sl != nil {
			sl.spans[f.span].wallEnd = now
			sl.spans[f.span].ok = ok
		}
		if nlat < len(lat) {
			lat[nlat] = clampNS(now - f.t0)
			nlat++
			p.nlat[c.id] = nlat
		}
		if c.done(p, ok) {
			stop = true
		}
	}
	// drain settles everything in flight; on a transport error the
	// replies never come, so the commands count as failed.
	drain := func() bool {
		if err := c.rc.Drain(); err != nil {
			for ; c.head < c.tail; c.head++ {
				c.done(p, false)
			}
			return false
		}
		return true
	}
	window := phaseSpan
	for i := 0; (p.maxOps == 0 || i < p.maxOps) && !stop; i++ {
		if sl != nil && p.window > 0 && i%p.window == 0 {
			window = sl.add(span{kind: kindWindow, ok: true, parent: phaseSpan, wallStart: e.now()})
		}
		o := c.gen.next()
		s := e.slot(o.key)
		f := inflight{o: o, t0: e.now()}
		if sl != nil {
			f.span = sl.add(span{kind: o.kind, parent: window, wallStart: f.t0})
		}
		// Go may consume a reply, and so read the fifo, before it returns:
		// the request goes in first.
		var err error
		if o.kind == opPut {
			e.issued[s]++
			f.seq = e.issued[s]
			c.push(f)
			fillValue(c.val, o.key, f.seq)
			err = c.rc.Go("SET", e.keys.str(o.key), lend(c.val))
		} else {
			f.seq = e.acked[s].Load()
			c.push(f)
			err = c.rc.Go("GET", e.keys.str(o.key))
		}
		if err != nil {
			break
		}
		if p.window > 0 && (i+1)%p.window == 0 {
			if !drain() {
				break
			}
			if sl != nil {
				sl.spans[window].wallEnd = e.now()
			}
		}
	}
	drain()
	if sl != nil && sl.spans[window].wallEnd == 0 {
		sl.spans[window].wallEnd = e.now()
	}
}

func (c *client) push(f inflight) {
	c.fifo[c.tail%len(c.fifo)] = f
	c.tail++
}

// onReply checks the reply to the oldest command in flight.
func (c *client) onReply(r respclient.Reply) error {
	if c.head == c.tail {
		return errors.New("reply without a request")
	}
	f := &c.fifo[c.head%len(c.fifo)]
	c.head++
	e := c.e
	ok := false
	if f.o.kind == opPut {
		if ok = r.Kind == '+' && r.Str == "OK"; ok {
			e.acked[e.slot(f.o.key)].Store(f.seq)
		}
	} else {
		ok = r.Kind == '$' && !r.Nil && fresh(strBytes(r.Str), f.o.key, f.seq)
	}
	c.settle(f, ok)
	return nil
}

// recoverAndVerify crashes the store, recovers it and reads every key
// back in-process: each must hold exactly the last sequence the store
// acknowledged; one that does not counts as a failed request.
func (e *env) recoverAndVerify() (prism.RecoveryReport, error) {
	if err := e.stopServer(); err != nil {
		return prism.RecoveryReport{}, err
	}
	e.store.Crash()
	rep, err := e.store.Recover()
	if err != nil {
		return rep, fmt.Errorf("recover: %w", err)
	}
	err = e.each(func(c *client) {
		defer func() { c.progress.Store(c.ops) }()
		for k := uint32(c.id); k < uint32(e.w.keys); k += clients {
			want := e.acked[e.slot(k)].Load()
			v, err := c.th.Get(e.keys.bytes(k))
			seq, ok := checkValue(v, k)
			if c.done(nil, err == nil && ok && seq == want && !breakChecks) {
				return
			}
		}
	}, 0, nil)
	return rep, err
}
