package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// The load generator lives here and is seeded only by -seed: it imports
// neither internal/ycsb nor internal/bench, so refactoring those cannot
// change what the benchmark sends. gen_test.go pins its output.

const (
	valueSize = 1024
	// Value layout: key id, per-key sequence, CRC-32C of everything else.
	valueHdr = 16
)

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opScan
	numKinds
)

var kindName = [numKinds]string{"get", "put", "scan"}

// op is one generated request. For opPut the key already lies in the
// issuing client's partition.
type op struct {
	kind    opKind
	key     uint32
	scanLen int
}

// mix is a request mix in whole percents; reads take the remainder.
type mix struct {
	updatePct, scanPct int
	zipfian            bool // else uniform
	maxScan            int
}

const zipfTheta = 0.99

// rng is splitmix64: one add and three xor-shift-multiplies per draw.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks in [0,n) with the YCSB closed-form approximation
// (Gray et al.), then scatters them over the key space so hot keys are
// not neighbours in the index.
type zipf struct {
	n                 uint64
	zetan, eta, alpha float64
	half              float64
}

func newZipf(n int) zipf {
	var zetan float64
	for i := 1; i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), zipfTheta)
	}
	zeta2 := 1 + 1/math.Pow(2, zipfTheta)
	return zipf{
		n:     uint64(n),
		zetan: zetan,
		alpha: 1 / (1 - zipfTheta),
		eta:   (1 - math.Pow(2/float64(n), 1-zipfTheta)) / (1 - zeta2/zetan),
		half:  1 + math.Pow(0.5, zipfTheta),
	}
}

func (z *zipf) next(r *rng) uint32 {
	u := r.float()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < z.half:
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	return uint32(mix64(rank) % z.n)
}

// generator produces one client's request stream. Each client owns the
// keys congruent to its index modulo the client count, and updates only
// those: a key then has a single writer, so the last acknowledged
// sequence of every key is known without coordination and every read
// can be checked against it.
type generator struct {
	r       rng
	m       mix
	z       zipf
	keys    uint32
	client  uint32
	clients uint32
}

func newGenerator(seed uint64, workload, client, clients, keys int, m mix) *generator {
	g := &generator{
		r:       rng{s: mix64(seed) ^ mix64(uint64(workload)<<32|uint64(client)+1)},
		m:       m,
		keys:    uint32(keys),
		client:  uint32(client),
		clients: uint32(clients),
	}
	if m.zipfian {
		g.z = newZipf(keys)
	}
	return g
}

func (g *generator) next() op {
	r := int(g.r.next() % 100)
	var k uint32
	if g.m.zipfian {
		k = g.z.next(&g.r)
	} else {
		k = uint32(g.r.next() % uint64(g.keys))
	}
	switch {
	case r < g.m.updatePct:
		return op{kind: opPut, key: g.own(k)}
	case r < g.m.updatePct+g.m.scanPct:
		return op{kind: opScan, key: k, scanLen: 1 + int(g.r.next()%uint64(g.m.maxScan))}
	}
	return op{kind: opGet, key: k}
}

// own maps k to the nearest key of this client's partition.
func (g *generator) own(k uint32) uint32 {
	k = k - k%g.clients + g.client
	if k >= g.keys {
		k -= g.clients
	}
	return k
}

const keyLen = 16

// keyTable holds every key of a workload, rendered once: requests index
// it instead of formatting.
type keyTable struct {
	b []byte // keyLen bytes per key
	s string // the same bytes, for the RESP client's string arguments
}

func newKeyTable(n int) keyTable {
	b := make([]byte, 0, n*keyLen)
	for i := 0; i < n; i++ {
		b = fmt.Appendf(b, "user%012d", i)
	}
	return keyTable{b: b, s: string(b)}
}

func (t keyTable) bytes(k uint32) []byte {
	return t.b[int(k)*keyLen : int(k+1)*keyLen : int(k+1)*keyLen]
}
func (t keyTable) str(k uint32) string { return t.s[int(k)*keyLen : int(k+1)*keyLen] }

// keyID parses a key produced by keyTable; ok is false for any other
// byte string.
func keyID(key []byte) (id uint32, ok bool) {
	if len(key) != keyLen || string(key[:4]) != "user" {
		return 0, false
	}
	var n uint64
	for _, c := range key[4:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return uint32(n), n <= math.MaxUint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// pad is the body every value is cut from; which slice depends on key
// and sequence, so two versions of a key differ in most bytes.
var pad = func() []byte {
	b := make([]byte, 1<<16)
	r := rng{s: 0x5eed}
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.next())
	}
	return b
}()

// fillValue writes the value of (key, seq) into dst[:valueSize].
func fillValue(dst []byte, key uint32, seq uint64) {
	dst = dst[:valueSize]
	binary.LittleEndian.PutUint32(dst[0:], key)
	binary.LittleEndian.PutUint64(dst[4:], seq)
	off := int((uint64(key)*31 + seq*17) % uint64(len(pad)-valueSize))
	copy(dst[valueHdr:], pad[off:])
	binary.LittleEndian.PutUint32(dst[12:], valueSum(dst))
}

func valueSum(v []byte) uint32 {
	return crc32.Update(crc32.Update(0, castagnoli, v[:12]), castagnoli, v[valueHdr:])
}

// checkValue reports whether v is an intact value of key, and its
// sequence.
func checkValue(v []byte, key uint32) (seq uint64, ok bool) {
	if len(v) != valueSize || binary.LittleEndian.Uint32(v) != key {
		return 0, false
	}
	if binary.LittleEndian.Uint32(v[12:]) != valueSum(v) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(v[4:]), true
}
