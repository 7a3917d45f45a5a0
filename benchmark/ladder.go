package main

import (
	"net"
	"sync"
	"time"

	prism "repro"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/hsit"
	"repro/internal/keyindex"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/pwb"
	"repro/internal/server"
	"repro/internal/server/respclient"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/svc"
	"repro/internal/tcq"
	"repro/internal/valuestore"
)

// The ladder times each layer alone: built from its exported
// constructor, driven by one goroutine with the workloads' 16-byte keys
// and 1 KiB values. It is the same for every workload, so a process
// climbs it once.

const (
	ladderKeys    = 8192
	ladderBatches = 5
)

// ladderScale divides every rung's call count; only the smoke test
// raises it.
var ladderScale = 1

// allocFree rungs report no .allocs: a counter increment, a histogram
// record, an epoch pin and a cache-line persist have never allocated,
// and BENCHMARK.json has room for 128 per-layer names. Should one start
// to, allocs_per_op on read-hot shows it.
var allocFree = map[string]bool{
	"epoch.enter_exit": true, "obs.counter_add": true, "obs.histogram_record": true, "nvm.persist64": true,
}

// rung is one call of one layer; clock says whether the layer charges a
// simulated clock, which gives the rung a virt_ns beside its wall_ns and
// allocs.
type rung struct {
	name  string
	calls int // per batch
	clock bool
	build func() layer
}

// layer is a built rung: call does the work (i counts calls from 0),
// reset runs untimed between batches, virt reads the simulated clock
// the calls advance. All but call may be nil.
type layer struct {
	call  func(i int)
	reset func()
	close func()
	virt  func() int64
}

var (
	ladderOnce sync.Once
	ladderVals map[string]float64
)

func ladder() map[string]float64 {
	ladderOnce.Do(func() {
		ladderVals = map[string]float64{}
		for _, r := range rungs {
			climb(r, ladderVals)
		}
		own := map[string]float64{}
		for _, r := range benchRungs {
			climb(r, own)
			ladderVals[r.name+"_ns"] = own[r.name+".wall_ns"]
		}
	})
	return ladderVals
}

// climb measures one rung: wall_ns is the median over the batches of a
// batch's mean, allocs and virt_ns are means over every call.
func climb(r rung, out map[string]float64) {
	l := r.build()
	if l.close != nil {
		defer l.close()
	}
	reset := func() {
		if l.reset != nil {
			l.reset()
		}
	}
	calls := max(r.calls/ladderScale, 1)
	l.call(0) // first-use costs are not the layer's steady state
	reset()
	var wall []float64
	var mallocs uint64
	var virt int64
	for b := 0; b < ladderBatches; b++ {
		var v0 int64
		if l.virt != nil {
			v0 = l.virt()
		}
		m0, _ := heapCounts()
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			l.call(i)
		}
		wall = append(wall, float64(time.Since(t0))/float64(calls))
		m1, _ := heapCounts()
		mallocs += m1 - m0
		if l.virt != nil {
			virt += l.virt() - v0
		}
		reset()
	}
	n := float64(ladderBatches * calls)
	out[r.name+".wall_ns"] = median(wall)
	if !allocFree[r.name] {
		out[r.name+".allocs"] = float64(mallocs) / n
	}
	if r.clock {
		out[r.name+".virt_ns"] = float64(virt) / n
	}
}

// What the rungs share: keys, one value, and a fixed pseudo-random
// order in which to touch the keys.
var (
	lkeys  = newKeyTable(ladderKeys)
	lvalue = func() []byte {
		v := make([]byte, valueSize)
		fillValue(v, 0, 1)
		return v
	}()
	lorder = func() []uint32 {
		r := rng{s: 42}
		o := make([]uint32, 1<<14)
		for i := range o {
			o[i] = uint32(r.next() % ladderKeys)
		}
		return o
	}()
)

func lid(i int) uint32  { return lorder[i%len(lorder)] }
func lkey(i int) []byte { return lkeys.bytes(lid(i)) }

func must(err error) {
	if err != nil {
		panic(err) // the ladder's inputs are fixed and valid
	}
}

func newNVM(size int) *nvm.Device { return nvm.New(nvm.Config{Size: size}) }

func loadedIndex() *keyindex.Index {
	ix := keyindex.New(newNVM(mib))
	for k := uint32(0); k < ladderKeys; k++ {
		ix.Insert(nil, lkeys.bytes(k), uint64(k))
	}
	return ix
}

func loadedHSIT() *hsit.Table {
	t := hsit.New(newNVM(ladderKeys*hsit.EntrySize), 0, ladderKeys, epoch.NewManager())
	for k := 0; k < ladderKeys; k++ {
		idx, err := t.Alloc(nil)
		must(err)
		t.Publish(nil, idx, hsit.Pointer{Media: hsit.VS, Len: valueSize, Off: uint64(k) * 2048})
	}
	return t
}

func loadedSVC() (*svc.Cache, []uint64) {
	c := svc.New(svc.Config{CapacityBytes: 64 * mib, Unpublish: func(uint64, uint64) bool { return true }})
	handles := make([]uint64, ladderKeys)
	for k := range handles {
		e := c.Admit(uint64(k), 0, lkeys.bytes(uint32(k)), lvalue)
		c.Published(e)
		handles[k] = e.Handle()
	}
	c.Sync()
	return c, handles
}

// kv is the part of core.Thread and prism.Thread the ladder drives.
type kv interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, error)
}

// load puts every ladder key in key order, then reads each once so that
// a cache large enough holds them all.
func load(th kv) {
	for k := uint32(0); k < ladderKeys; k++ {
		must(th.Put(lkeys.bytes(k), lvalue))
	}
	for k := uint32(0); k < ladderKeys; k++ {
		_, err := th.Get(lkeys.bytes(k))
		must(err)
	}
}

func putRung(th kv, clk *sim.Clock, close func() error) layer {
	return layer{
		call:  func(i int) { must(th.Put(lkey(i), lvalue)) },
		close: func() { close() },
		virt:  clk.Now,
	}
}

// getRung reads keys of the older half when div is 2, of all when 1.
func getRung(th kv, clk *sim.Clock, div uint32, close func() error) layer {
	return layer{
		call: func(i int) {
			_, err := th.Get(lkeys.bytes(lid(i) / div))
			must(err)
		},
		close: func() { close() },
		virt:  clk.Now,
	}
}

func coreStore(opt core.Options) (*core.Store, *core.Thread) {
	opt.NumThreads, opt.HSITCapacity = 1, 2*ladderKeys
	st, err := core.Open(opt)
	must(err)
	load(st.Thread(0))
	return st, st.Thread(0)
}

func routedStore(opt prism.Options) (*prism.Store, *prism.Thread) {
	opt.NumThreads, opt.HSITCapacity = 1, 2*ladderKeys
	st, err := prism.Open(opt)
	must(err)
	load(st.Thread(0))
	return st, st.Thread(0)
}

// served is a rung that sends one command per call, on one connection,
// to a RESP server over a loaded one-shard store.
func served(cmd func(rc *respclient.Client, i int) error) layer {
	st, _ := routedStore(prism.Options{SVCBytes: 32 * mib})
	srv := server.New(st, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	rc, err := respclient.Dial(ln.Addr().String())
	must(err)
	return layer{
		call: func(i int) { must(cmd(rc, i)) },
		close: func() {
			rc.Close()
			must(srv.Shutdown(5 * time.Second))
			must(<-serveErr)
			st.Close()
		},
	}
}

var sink uint64 // keeps the compiler from dropping the bench rungs' work

var rungs = []rung{
	{"keyindex.lookup", 20000, true, func() layer {
		ix, clk := loadedIndex(), sim.NewClock(0)
		return layer{call: func(i int) { ix.Lookup(clk, lkey(i)) }, virt: clk.Now}
	}},
	{"keyindex.upsert", 20000, true, func() layer {
		ix, clk := loadedIndex(), sim.NewClock(0)
		return layer{call: func(i int) { ix.Upsert(clk, lkey(i), uint64(i)) }, virt: clk.Now}
	}},
	{"keyindex.scan50", 2000, true, func() layer {
		ix, clk := loadedIndex(), sim.NewClock(0)
		return layer{call: func(i int) {
			ix.Scan(clk, lkey(i), 50, func([]byte, uint64) bool { return true })
		}, virt: clk.Now}
	}},
	{"hsit.load", 20000, true, func() layer {
		t, clk := loadedHSIT(), sim.NewClock(0)
		return layer{call: func(i int) { t.Load(clk, uint64(lid(i))) }, virt: clk.Now}
	}},
	{"hsit.publish", 20000, true, func() layer {
		t, clk := loadedHSIT(), sim.NewClock(0)
		return layer{call: func(i int) {
			t.Publish(clk, uint64(lid(i)), hsit.Pointer{Media: hsit.PWB, Len: valueSize, Off: uint64(i) * 16})
		}, virt: clk.Now}
	}},
	{"pwb.append", 2000, true, func() layer {
		// The ring holds a whole batch; reset empties it.
		b, clk := pwb.NewBuffer(newNVM(4*mib), 0, 4*mib), sim.NewClock(0)
		return layer{call: func(i int) {
			_, _, err := b.Append(clk, uint64(i), lvalue)
			must(err)
			b.Published()
		}, reset: b.Reset, virt: clk.Now}
	}},
	{"pwb.read_value", 20000, true, func() layer {
		b, clk := pwb.NewBuffer(newNVM(4*mib), 0, 4*mib), sim.NewClock(0)
		offs := make([]uint64, 2048)
		for i := range offs {
			off, _, err := b.Append(nil, uint64(i), lvalue)
			must(err)
			b.Published()
			offs[i] = off
		}
		return layer{call: func(i int) { b.ReadValue(clk, offs[lid(i)%2048], valueSize) }, virt: clk.Now}
	}},
	{"svc.lookup", 20000, false, func() layer {
		c, handles := loadedSVC()
		return layer{call: func(i int) { c.Lookup(uint64(lid(i)), handles[lid(i)]) }, reset: c.Sync, close: c.Close}
	}},
	{"svc.admit", 2000, false, func() layer {
		c := svc.New(svc.Config{CapacityBytes: 64 * mib, Unpublish: func(uint64, uint64) bool { return true }})
		return layer{call: func(i int) {
			c.Published(c.Admit(uint64(i), 0, lkey(i), lvalue))
		}, reset: c.Sync, close: c.Close}
	}},
	{"tcq.read", 5000, true, func() layer {
		q, clk := tcq.New(ssd.New(ssd.Config{Size: 16 * mib}), 0), sim.NewClock(0)
		buf := make([]byte, valuestore.HeaderSize+valueSize)
		return layer{call: func(i int) {
			req := ssd.Request{Op: ssd.OpRead, Offset: int64(lid(i)) * 1024, Data: buf}
			clk.AdvanceTo(q.Read(clk.Now(), req))
		}, virt: clk.Now}
	}},
	{"ssd.submit_write", 100, true, func() layer {
		// Chunk-sized, as Value Storage writes.
		dev, clk := ssd.New(ssd.Config{Size: 16 * mib}), sim.NewClock(0)
		chunk := make([]byte, chunkSize)
		return layer{call: func(i int) {
			c := dev.Submit(clk.Now(), []ssd.Request{{Op: ssd.OpWrite, Offset: int64(i%32) * chunkSize, Data: chunk}})[0]
			clk.AdvanceTo(c.DoneTime)
			dev.Ack(c)
		}, virt: clk.Now}
	}},
	{"valuestore.write_chunk", 50, true, func() layer {
		// One call fills and commits a whole chunk. The device holds a
		// batch of chunks; reset invalidates every record, which frees
		// them.
		s := valuestore.NewStore(ssd.New(ssd.Config{Size: 64 * chunkSize}), chunkSize, epoch.NewManager())
		clk := sim.NewClock(0)
		var written []valuestore.Entry
		return layer{call: func(int) {
			w, err := s.NewWriter()
			must(err)
			for idx := uint64(0); w.Room(valueSize); idx++ {
				w.Add(idx, lvalue)
			}
			done, entries := w.Commit(clk.Now())
			clk.AdvanceTo(done)
			written = append(written, entries...)
		}, reset: func() {
			for _, e := range written {
				s.Invalidate(e.LocalOff, e.ValueLen)
			}
			written = written[:0]
		}, virt: clk.Now}
	}},
	{"nvm.persist64", 20000, true, func() layer {
		dev, clk := newNVM(mib), sim.NewClock(0)
		line := make([]byte, nvm.LineSize)
		return layer{call: func(i int) {
			off := int(lid(i)) * nvm.LineSize
			dev.Store(clk, off, line)
			dev.Persist(clk, off, nvm.LineSize)
		}, virt: clk.Now}
	}},
	{"epoch.enter_exit", 50000, false, func() layer {
		p := epoch.NewManager().Register()
		return layer{call: func(int) { p.Enter(); p.Exit() }}
	}},
	{"obs.counter_add", 50000, false, func() layer {
		c := obs.NewRegistry().Counter(obs.Desc{Name: "ladder.counter"})
		return layer{call: func(int) { c.Add(1) }}
	}},
	{"obs.histogram_record", 50000, false, func() layer {
		h := obs.NewRegistry().Histogram(obs.Desc{Name: "ladder.histogram"})
		return layer{call: func(i int) { h.Record(int64(lid(i))) }}
	}},
	{"core.put", 4000, true, func() layer {
		st, th := coreStore(core.Options{PWBBytesPerThread: 2 * mib})
		return putRung(th, th.Clk, st.Close)
	}},
	{"core.get_svc", 10000, true, func() layer {
		st, th := coreStore(core.Options{SVCBytes: 32 * mib})
		return getRung(th, th.Clk, 1, st.Close)
	}},
	{"core.get_vs", 5000, true, func() layer {
		// No cache, and only the older half of the keys: the 1 MiB write
		// buffer has long since passed them on to Value Storage.
		st, th := coreStore(core.Options{DisableSVC: true})
		return getRung(th, th.Clk, 2, st.Close)
	}},
	// The same calls through the router: the difference to core.* is
	// what routing costs.
	{"shard.put", 4000, true, func() layer {
		st, th := routedStore(prism.Options{PWBBytesPerThread: 2 * mib})
		return putRung(th, th.Clk, st.Close)
	}},
	{"shard.get", 10000, true, func() layer {
		st, th := routedStore(prism.Options{SVCBytes: 32 * mib})
		return getRung(th, th.Clk, 1, st.Close)
	}},
	{"shard.put_r2", 4000, true, func() layer {
		st, th := routedStore(prism.Options{Shards: 3, Replicas: 2, PWBBytesPerThread: 2 * mib})
		return putRung(th, th.Clk, st.Close)
	}},
	// One command in flight. PING never reaches the store, so it is the
	// cost of the wire, the parser and the reply alone.
	{"server.ping_rtt", 3000, false, func() layer {
		return served(func(rc *respclient.Client, _ int) error { _, err := rc.Do("PING"); return err })
	}},
	{"server.get_rtt", 3000, false, func() layer {
		return served(func(rc *respclient.Client, i int) error { _, err := rc.Do("GET", lkeys.str(lid(i))); return err })
	}},
	{"server.set_rtt", 3000, false, func() layer {
		return served(func(rc *respclient.Client, i int) error {
			_, err := rc.Do("SET", lkeys.str(lid(i)), lend(lvalue))
			return err
		})
	}},
}

// benchRungs time the benchmark itself; each reports one number,
// <name>_ns.
var benchRungs = []rung{
	// A fixed stretch of arithmetic: how fast this host is today.
	{"bench.calibration", 2000, false, func() layer {
		return layer{call: func(i int) {
			x := uint64(i)
			for j := 0; j < 1000; j++ {
				x = mix64(x)
			}
			sink += x
		}}
	}},
	{"bench.gen_next", 50000, false, func() layer {
		g := newGenerator(1, 3, 0, clients, 40_000, workloads[3].mix)
		return layer{call: func(int) { sink += uint64(g.next().key) }}
	}},
}
