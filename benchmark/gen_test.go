package main

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// loadHash folds the first n requests of every client of workload wi,
// and the value each update would write, into one number.
func loadHash(wi int, seed uint64, n int) uint64 {
	w := &workloads[wi]
	h := fnv.New64a()
	var b [16]byte
	val := make([]byte, valueSize)
	seqs := make([]uint64, w.keys)
	for c := 0; c < clients; c++ {
		g := newGenerator(seed, wi, c, clients, w.keys, w.mix)
		for i := 0; i < n/clients; i++ {
			o := g.next()
			b[0] = byte(o.kind)
			binary.LittleEndian.PutUint32(b[1:], o.key)
			binary.LittleEndian.PutUint32(b[5:], uint32(o.scanLen))
			h.Write(b[:9])
			if o.kind == opPut {
				seqs[o.key]++
				fillValue(val, o.key, seqs[o.key])
				h.Write(val)
			}
		}
	}
	return h.Sum64()
}

// TestLoadIsPinned fails when the generator, the mixes, the key
// partition or the value format change: results from before and after
// such a change are not comparable, so it has to be a decision.
func TestLoadIsPinned(t *testing.T) {
	want := map[string]uint64{}
	for wi, w := range workloads {
		got := loadHash(wi, 1, 10_000)
		if got != golden[w.name] {
			t.Errorf("%s: first 10,000 requests of seed 1 hash to %#x, pinned %#x", w.name, got, golden[w.name])
		}
		want[w.name] = got
	}
	if t.Failed() {
		t.Logf("if the load was meant to change, the new constants are %#v", want)
	}
}

// Pinned on amd64. The zipfian draw is floating point, so a platform
// whose compiler fuses multiply-adds may legitimately differ.
var golden = map[string]uint64{
	"write-churn":    0x5093c9eaebb43ed1,
	"read-hot":       0x2144d106bd2fb846,
	"read-cold":      0xa76d4451b7ac669b,
	"mixed-nutanix":  0x5ec7b10f9624b3b6,
	"repl-mixed":     0x728ec90ae8e03ddd,
	"wire-pipelined": 0xe907229559d4fd0c,
	"wire-sync":      0x25e3f05d05b0c091,
}

func TestGeneratorMix(t *testing.T) {
	for wi, w := range workloads {
		var n [numKinds]int
		g := newGenerator(7, wi, 1, clients, w.keys, w.mix)
		const total = 200_000
		for i := 0; i < total; i++ {
			o := g.next()
			n[o.kind]++
			if int(o.key) >= w.keys {
				t.Fatalf("%s: key %d out of range", w.name, o.key)
			}
			if o.kind == opPut && o.key%clients != 1 {
				t.Fatalf("%s: client 1 updates key %d of another partition", w.name, o.key)
			}
			if o.kind == opScan && (o.scanLen < 1 || o.scanLen > w.mix.maxScan) {
				t.Fatalf("%s: scan of %d rows", w.name, o.scanLen)
			}
		}
		for k, pct := range map[opKind]int{opPut: w.mix.updatePct, opScan: w.mix.scanPct} {
			if got := 100 * float64(n[k]) / total; got < float64(pct)-0.5 || got > float64(pct)+0.5 {
				t.Errorf("%s: %.2f%% %s, want %d%%", w.name, got, kindName[k], pct)
			}
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	v := make([]byte, valueSize)
	fillValue(v, 123, 45)
	if seq, ok := checkValue(v, 123); !ok || seq != 45 {
		t.Fatalf("checkValue = %d, %v", seq, ok)
	}
	if _, ok := checkValue(v, 124); ok {
		t.Error("value accepted for another key")
	}
	v[500] ^= 1
	if _, ok := checkValue(v, 123); ok {
		t.Error("flipped bit not detected")
	}
	if id, ok := keyID(newKeyTable(200).bytes(199)); !ok || id != 199 {
		t.Errorf("keyID = %d, %v", id, ok)
	}
}
