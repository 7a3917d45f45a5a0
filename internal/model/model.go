// Package model is the one model harness of the store's property tests:
// a seeded op generator, a reference model of what every key may read
// back, and one checker, driven the same way at every level — core, the
// shard router, the public API, the baseline engines and the RESP wire.
//
// A seed's op stream depends only on the seed and the Config, never on
// the level, so a seed that fails at one level replays at every level
// below it. Every client draws from its own stream and is the single
// writer of its own key partition, so its reads are exact even while
// other clients run. Values describe themselves (key id, per-key
// sequence number, CRC-32C), so a read that returns another key's value,
// a torn value or a stale version is caught from the value alone.
//
// Every write ends in one of three outcomes, and a level reports the
// strongest it knows (see Level.Fates): acked, visible until a later
// write to the key supersedes it; failed, never visible; unknown, visible
// or not. A delete reports not-found exactly when the model lacks the key.
package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sync"
	"testing"
)

// seeds is the seed list every caller runs, one subtest "seed=N" each.
var seeds = [...]uint64{1, 2, 3, 4}

// A Kind is an op's kind. Put, Del and Get are the single-key kinds, the
// only ones inside a compound op.
type Kind uint8

const (
	Put Kind = iota
	Del
	Get
	Scan
	PutBatch
	MultiGet
	Burst // async single-key ops, all submitted before the first is waited on
	Fault // one of the level's fault events, chosen by Arg
)

var names = [...]string{"put", "del", "get", "scan", "putbatch", "multiget", "burst", "fault"}

// mix is the op mix in percent, by Kind.
var mix = [...]int{34, 10, 24, 8, 8, 7, 7, 2}

// An Op is one generated operation on key ids.
type Op struct {
	Kind Kind
	Key  int    // Scan: the id it starts at
	Seq  uint64 // Put: the version written
	N    int    // Scan: the row limit
	Sub  []Op   // PutBatch, MultiGet, Burst: the single-key ops
	At   int    // PutBatch, Burst: where a level with a crash seam crashes; -1: nowhere
	Arg  uint64 // Fault and a mid-op crash: the level's choice of fault
}

func (o Op) String() string {
	switch o.Kind {
	case Put:
		return fmt.Sprintf("put %s#%d", Key(o.Key), o.Seq)
	case Del, Get:
		return fmt.Sprintf("%s %s", names[o.Kind], Key(o.Key))
	case Scan:
		return fmt.Sprintf("scan %s %d", Key(o.Key), o.N)
	}
	return fmt.Sprintf("%s %v arg=%d crash@%d", names[o.Kind], o.Sub, o.Arg, o.At)
}

// An Outcome is what a level knows of a write it made.
type Outcome uint8

const (
	Acked   Outcome = iota // visible until a later write to the key supersedes it
	Failed                 // never visible
	Unknown                // may or may not be visible
	Bug                    // the error is a failure of the level under test
)

// Config shapes the op streams: Clients streams (default 1) of Steps ops
// over the key ids [0, Keys); client c writes only the ids ≡ c mod Clients.
type Config struct{ Clients, Keys, Steps int }

type pair interface{ ~struct{ Key, Value []byte } }

type handle interface{ Value() ([]byte, error) }

// Ops is one client's view of a level, in the level's own pair type KV
// and async handle type H. A nil PutBatch, MultiGet or PutAsync makes the
// client skip ops of that kind (GetAsync and DelAsync go with PutAsync).
type Ops[KV pair, H handle] struct {
	Put      func(key, val []byte) error
	Get      func(key []byte) ([]byte, error)
	Del      func(key []byte) error
	Scan     func(start []byte, n int, fn func(KV) bool) error
	PutBatch func([]KV) error
	MultiGet func(keys [][]byte) ([][]byte, error) // nil: the key is missing
	PutAsync func(key, val []byte) H
	GetAsync func(key []byte) H
	DelAsync func(key []byte) H
}

// A Level is a store under test. Only Name, NotFound and Client are
// required; the hooks are the level's fault seams, and an error from one
// fails the seed.
type Level[KV pair, H handle] struct {
	Name     string
	NotFound error                  // what a read or delete of a missing key returns
	Client   func(c int) Ops[KV, H] // called once per client, before any op
	// Fates gives the outcome of a write whose error errors.Is a key, in
	// an op the harness crashed in the middle of; a read there with such an
	// error is not checked. Any other error is a Bug.
	Fates map[error]Outcome
	// Reorders lets a burst's get read a later write of the same burst:
	// the replicated router orders async ops per shard only, and a get
	// that misses on one replica asks the next (shard.Thread.GetAsync).
	Reorders bool
	// Crash crashes the level in the middle of a PutBatch or Burst whose
	// At is set. Recover, if set, runs after such an op, and then every
	// key the op touched is read back.
	Crash   func(arg uint64)
	Recover func() error
	// BatchStep installs hook to run right after each entry a PutBatch
	// applies: the harness crashes the level there at entry At, so the
	// entries up to At are acked.
	BatchStep func(hook func(entry int))
	Fault     func(arg uint64) error // a Fault event; nil: skipped
	During    func() error           // runs beside the clients
	End       func() error           // runs after the final audit
}

// Run runs every seed of the seed list as a subtest: open builds a fresh
// level, the clients run their streams concurrently, and then every key
// is read back and the whole keyspace scanned.
func Run[KV pair, H handle](t *testing.T, cfg Config, open func(t *testing.T) Level[KV, H]) {
	cfg.Clients = max(cfg.Clients, 1)
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := &run[KV, H]{t: t, cfg: cfg, lv: open(t), seed: seed, vis: make([][]uint64, cfg.Keys)}
			ops := make([]Ops[KV, H], cfg.Clients)
			var wg sync.WaitGroup
			for c := range ops {
				ops[c] = r.lv.Client(c)
				wg.Add(1)
				go func() { defer wg.Done(); r.client(c, ops[c]) }()
			}
			if r.lv.During != nil {
				r.check("beside the clients", r.lv.During())
			}
			wg.Wait()
			if !t.Failed() && r.check("final audit (every key read, then all scanned)", r.audit(ops[0])) && r.lv.End != nil {
				r.check("end", r.lv.End())
			}
		})
	}
}

type run[KV pair, H handle] struct {
	t    *testing.T
	cfg  Config
	lv   Level[KV, H]
	seed uint64
	// vis[k] lists the versions key id k may read as (0: absent): first
	// the last one settled, then those of later writes of unknown outcome.
	// nil is absent. Client c touches only its own ids until the audit.
	vis [][]uint64
}

func (r *run[KV, H]) client(c int, ops Ops[KV, H]) {
	g := newGen(r.seed, c, r.cfg)
	for step := 0; step < r.cfg.Steps; step++ {
		if o := g.next(); !r.check(fmt.Sprintf("client %d, step %d, %v", c, step, o), r.do(ops, c, o)) {
			return
		}
	}
}

// check reports err, if any, with the command that replays it.
func (r *run[KV, H]) check(where string, err error) bool {
	if err != nil {
		wd, _ := os.Getwd()
		r.t.Errorf("%s level, seed %d, %s: %v\nreplay: go test -run '%s' in %s", r.lv.Name, r.seed, where, err, r.t.Name(), wd)
	}
	return err == nil
}

// do runs op o of client c and checks what it returned. After an op a
// crash interrupted, every key it touched is read back.
func (r *run[KV, H]) do(ops Ops[KV, H], c int, o Op) error {
	switch o.Kind {
	case Scan:
		return r.scan(ops, c, o.Key, o.N)
	case Fault:
		if r.lv.Fault == nil {
			return nil
		}
		return r.lv.Fault(o.Arg)
	case Put, Del, Get:
		o.Sub = []Op{o}
	}
	crashed := false
	vals, errs := r.submit(ops, o, func() {
		if crashed = r.lv.Crash != nil; crashed {
			r.lv.Crash(o.Arg)
		}
	})
	for i, s := range o.Sub[:len(errs)] {
		if s.Kind == Get && r.lv.Reorders && r.ahead(o.Sub[i+1:], s.Key, vals[i], errs[i]) {
			continue
		}
		if err := r.result(s, vals[i], errs[i], crashed); err != nil {
			return err
		}
	}
	if crashed && r.lv.Recover != nil {
		if err := r.lv.Recover(); err != nil {
			return fmt.Errorf("recover: %w", err)
		}
	}
	for i := 0; crashed && i < len(o.Sub); i++ {
		if err := r.do(ops, c, Op{Kind: Get, Key: o.Sub[i].Key}); err != nil {
			return fmt.Errorf("after the crash: %w", err)
		}
	}
	return nil
}

// submit runs o's single-key ops — one sync call, one PutBatch, one
// MultiGet or one async burst — and returns what each returned, or
// nothing if the level lacks o's kind.
func (r *run[KV, H]) submit(ops Ops[KV, H], o Op, crash func()) (vals [][]byte, errs []error) {
	n := len(o.Sub)
	vals, errs = make([][]byte, n), make([]error, n)
	keys := make([][]byte, n)
	for i, s := range o.Sub {
		keys[i] = Key(s.Key)
	}
	switch {
	case o.Kind == Put:
		errs[0] = ops.Put(keys[0], Value(o.Key, o.Seq))
	case o.Kind == Del:
		errs[0] = ops.Del(keys[0])
	case o.Kind == Get:
		vals[0], errs[0] = ops.Get(keys[0])
	case o.Kind == PutBatch && ops.PutBatch != nil:
		kvs := make([]KV, n)
		for i, s := range o.Sub {
			kvs[i] = KV{Key: keys[i], Value: Value(s.Key, s.Seq)}
		}
		acked := 0
		if r.lv.BatchStep != nil {
			r.lv.BatchStep(func(entry int) {
				if entry == o.At {
					acked = entry + 1
					crash()
				}
			})
		}
		err := ops.PutBatch(kvs)
		for i := acked; i < n; i++ {
			errs[i] = err
		}
	case o.Kind == MultiGet && ops.MultiGet != nil:
		got, err := ops.MultiGet(keys)
		if err == nil && len(got) != n {
			err = fmt.Errorf("multiget returned %d values for %d keys", len(got), n)
		}
		for i := range errs {
			if errs[i] = err; err == nil {
				if vals[i] = got[i]; got[i] == nil {
					errs[i] = r.lv.NotFound
				}
			}
		}
	case o.Kind == Burst && ops.PutAsync != nil:
		hs := make([]H, n)
		for i, s := range o.Sub {
			if i == o.At {
				crash()
			}
			switch s.Kind {
			case Put:
				hs[i] = ops.PutAsync(keys[i], Value(s.Key, s.Seq))
			case Del:
				hs[i] = ops.DelAsync(keys[i])
			default:
				hs[i] = ops.GetAsync(keys[i])
			}
		}
		for i, h := range hs {
			vals[i], errs[i] = h.Value()
		}
	default:
		return nil, nil
	}
	return vals, errs
}

// result checks what single-key op o returned — for a Get, v — and folds
// a write into the model. An error other than a read's or a delete's
// NotFound is a Bug, unless a crash interrupted o and the level gives it
// a fate.
func (r *run[KV, H]) result(o Op, v []byte, err error, crashed bool) error {
	vs, absent := r.vis[o.Key], errors.Is(err, r.lv.NotFound)
	if vs == nil {
		vs = []uint64{0}
	}
	if err != nil && (!absent || o.Kind == Put) {
		out := Bug
		for e, f := range r.lv.Fates {
			if crashed && errors.Is(err, e) {
				out = f
			}
		}
		if out == Unknown && o.Kind < Get {
			r.vis[o.Key] = append(vs, o.Seq)
		} else if out == Bug {
			return fmt.Errorf("%v: %w", o, err)
		}
		return nil
	}
	ok := true
	seq, intact := version(v, o.Key)
	switch {
	case o.Kind == Put:
		r.vis[o.Key] = []uint64{o.Seq}
	case o.Kind == Del && !absent:
		ok = slices.ContainsFunc(vs, func(s uint64) bool { return s > 0 })
		r.vis[o.Key] = nil
	case absent:
		ok = slices.Contains(vs, 0)
	default:
		ok = intact && slices.Contains(vs, seq)
	}
	if !ok {
		return fmt.Errorf("%v returned version %d (intact %v, %d bytes), %v; the model allows %v (0: absent)", o, seq, intact, len(v), err, vs)
	}
	return nil
}

// ahead reports whether a get in a burst read what a later op of the
// burst writes to key id k (see Level.Reorders).
func (r *run[KV, H]) ahead(later []Op, k int, v []byte, err error) bool {
	seq, ok := version(v, k)
	return slices.ContainsFunc(later, func(s Op) bool {
		return s.Key == k && (s.Kind == Del && errors.Is(err, r.lv.NotFound) || s.Kind == Put && ok && s.Seq == seq)
	})
}

// scan checks a scan of n rows (0: all) from key id start: rows in key
// order, every one an intact value of its key, and on client c's own ids
// (every id when c < 0) exactly the model, none left out.
func (r *run[KV, H]) scan(ops Ops[KV, H], c, start, n int) error {
	next, rows := start, 0
	var bad error
	err := ops.Scan(Key(start), n, func(kv KV) bool {
		row := struct{ Key, Value []byte }(kv)
		k := id(row.Key)
		if _, intact := version(row.Value, k); k < next || !intact && !r.own(c, k) {
			bad = fmt.Errorf("row %d, %q: out of order, or not an intact value of its key", rows, row.Key)
		} else if bad = r.gap(c, next, k); bad == nil && r.own(c, k) {
			bad = r.result(Op{Kind: Scan, Key: k}, row.Value, nil, false)
		}
		next, rows = k+1, rows+1
		return bad == nil
	})
	if bad == nil && err == nil && (n == 0 || rows < n) {
		bad = r.gap(c, next, r.cfg.Keys)
	}
	return errors.Join(bad, err)
}

// gap checks that client c's ids in [from, to) may all be absent.
func (r *run[KV, H]) gap(c, from, to int) error {
	for k := from; k < to; k++ {
		if r.own(c, k) && r.vis[k] != nil && !slices.Contains(r.vis[k], 0) {
			return fmt.Errorf("skipped %s, the model holds %v", Key(k), r.vis[k])
		}
	}
	return nil
}

func (r *run[KV, H]) own(c, k int) bool { return c < 0 || k%r.cfg.Clients == c }

// audit reads every key back and scans the whole keyspace, once the
// clients are done.
func (r *run[KV, H]) audit(ops Ops[KV, H]) error {
	for k := range r.vis {
		if err := r.do(ops, -1, Op{Kind: Get, Key: k}); err != nil {
			return err
		}
	}
	return r.scan(ops, -1, 0, 0)
}

// gen is one client's op stream.
type gen struct {
	s    uint64 // splitmix64 state
	c    int
	cfg  Config
	seqs []uint64 // the last version drawn, by key id
}

func newGen(seed uint64, c int, cfg Config) *gen {
	return &gen{s: mix64(mix64(seed) + uint64(c)), c: c, cfg: cfg, seqs: make([]uint64, cfg.Keys)}
}

func (g *gen) intn(n int) int {
	g.s += 0x9e3779b97f4a7c15
	return int(mix64(g.s) % uint64(n))
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// one draws a single-key op on one of the client's own ids.
func (g *gen) one(kind Kind) Op {
	k := g.intn(g.cfg.Keys)
	if k += g.c - k%g.cfg.Clients; k >= g.cfg.Keys {
		k -= g.cfg.Clients
	}
	o := Op{Kind: kind, Key: k, At: -1}
	if kind == Put {
		g.seqs[k]++
		o.Seq = g.seqs[k]
	}
	return o
}

func (g *gen) next() Op {
	d, kind := g.intn(100), Put
	for ; d >= mix[kind]; kind++ {
		d -= mix[kind]
	}
	o := Op{Kind: kind, At: -1}
	switch kind {
	case Put, Del, Get:
		return g.one(kind)
	case Scan:
		o.Key, o.N = g.intn(g.cfg.Keys), 1+g.intn(20)
		return o
	}
	if o.Arg = uint64(g.intn(1 << 30)); kind == Fault {
		return o
	}
	o.Sub = make([]Op, 2+g.intn(7))
	for i := range o.Sub {
		sub := Kind(g.intn(3)) // a burst mixes the single-key kinds
		if kind != Burst {
			sub = [...]Kind{PutBatch: Put, MultiGet: Get}[kind]
		}
		o.Sub[i] = g.one(sub)
	}
	if kind != MultiGet && g.intn(6) == 0 {
		o.At = g.intn(len(o.Sub))
	}
	return o
}

const valueSize = 64 // fixed, so KVell's slab slots fit every value

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Key renders key id k; ids sort as their keys do.
func Key(k int) []byte { return fmt.Appendf(nil, "user%08d", k) }

// id parses a key Key rendered, or returns -1.
func id(key []byte) (k int) {
	if _, err := fmt.Sscanf(string(key), "user%d", &k); err != nil || !bytes.Equal(Key(k), key) {
		return -1
	}
	return k
}

// Value is version seq of key id k: the id, seq, a CRC-32C of the rest,
// and a body that differs from version to version.
func Value(k int, seq uint64) []byte {
	v := make([]byte, valueSize)
	binary.LittleEndian.PutUint32(v, uint32(k))
	binary.LittleEndian.PutUint64(v[4:], seq)
	for i := 16; i < valueSize; i += 8 {
		binary.LittleEndian.PutUint64(v[i:], mix64(seq<<32^uint64(k)+uint64(i)))
	}
	binary.LittleEndian.PutUint32(v[12:], checksum(v))
	return v
}

func checksum(v []byte) uint32 {
	return crc32.Update(crc32.Checksum(v[:12], castagnoli), castagnoli, v[16:])
}

// version returns the sequence number of v if it is an intact value of
// key id k.
func version(v []byte, k int) (uint64, bool) {
	if len(v) != valueSize || binary.LittleEndian.Uint32(v) != uint32(k) || binary.LittleEndian.Uint32(v[12:]) != checksum(v) {
		return 0, false
	}
	seq := binary.LittleEndian.Uint64(v[4:])
	return seq, seq > 0
}
