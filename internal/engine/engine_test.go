package engine

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
)

func openPrism(t *testing.T) *PrismStore {
	t.Helper()
	s, err := NewPrism(core.Options{
		NumThreads:        2,
		PWBBytesPerThread: 128 << 10,
		HSITCapacity:      1 << 13,
		NumSSDs:           1,
		SSDBytes:          8 << 20,
		SVCBytes:          128 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPrismAdapterRoundTrip(t *testing.T) {
	s := openPrism(t)
	kv := s.Thread(0)
	if err := kv.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := kv.Get([]byte("k"))
	if err != nil || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if kv.Clock().Now() == 0 {
		t.Fatal("adapter exposes no virtual time")
	}
	if s.NumThreads() != 2 {
		t.Fatalf("NumThreads = %d", s.NumThreads())
	}
}

func TestPrismAdapterErrorMapping(t *testing.T) {
	s := openPrism(t)
	kv := s.Thread(0)
	if _, err := kv.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing = %v, want engine.ErrNotFound", err)
	}
	if err := kv.Delete([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete missing = %v, want engine.ErrNotFound", err)
	}
	a := kv.(AsyncKV)
	for name, submit := range map[string]func([]byte) Completion{"GetAsync": a.GetAsync, "DeleteAsync": a.DeleteAsync} {
		c := submit([]byte("missing"))
		if err := c.Wait(); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s missing: Wait = %v, want engine.ErrNotFound", name, err)
		}
		if v, err := c.Value(); v != nil || !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s missing: Value = %q, %v, want nil, engine.ErrNotFound", name, v, err)
		}
	}
}

func TestPrismAdapterScan(t *testing.T) {
	s := openPrism(t)
	kv := s.Thread(0)
	for i := 0; i < 30; i++ {
		kv.Put([]byte(fmt.Sprintf("k%02d", i)), []byte{byte(i)})
	}
	var keys []string
	err := kv.Scan([]byte("k10"), 5, func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 5 || keys[0] != "k10" || keys[4] != "k14" {
		t.Fatalf("scan = %v", keys)
	}
}

func TestPrismAdapterBatch(t *testing.T) {
	s := openPrism(t)
	kv := s.Thread(0)
	if _, ok := kv.(BatchKV); !ok {
		t.Fatal("prism thread does not implement BatchKV")
	}
	var pairs []Pair
	for i := 0; i < 40; i++ {
		pairs = append(pairs, Pair{Key: []byte(fmt.Sprintf("b%03d", i)), Value: []byte(fmt.Sprintf("v%03d", i))})
	}
	if err := PutBatch(kv, pairs); err != nil {
		t.Fatal(err)
	}
	keys := [][]byte{[]byte("b005"), []byte("missing"), []byte("b039")}
	vals, err := MultiGet(kv, keys)
	if err != nil {
		t.Fatal(err)
	}
	if string(vals[0]) != "v005" || vals[1] != nil || string(vals[2]) != "v039" {
		t.Fatalf("MultiGet = %q", vals)
	}
	// Present-but-empty stays distinguishable from missing.
	if err := kv.Put([]byte("empty"), nil); err != nil {
		t.Fatal(err)
	}
	vals, err = MultiGet(kv, [][]byte{[]byte("empty"), []byte("missing")})
	if err != nil || vals[0] == nil || len(vals[0]) != 0 || vals[1] != nil {
		t.Fatalf("empty/missing = %v, %v", vals, err)
	}
}

// loopKV is a minimal non-batch engine; the package helpers must fall
// back to per-key loops for it with identical semantics.
type loopKV struct {
	KV
	m map[string][]byte
}

func (l *loopKV) Put(k, v []byte) error { l.m[string(k)] = append([]byte{}, v...); return nil }
func (l *loopKV) Get(k []byte) ([]byte, error) {
	v, ok := l.m[string(k)]
	if !ok {
		return nil, ErrNotFound
	}
	return v, nil
}

func TestBatchHelpersFallback(t *testing.T) {
	kv := &loopKV{m: map[string][]byte{}}
	if err := PutBatch(kv, []Pair{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("e"), Value: nil}}); err != nil {
		t.Fatal(err)
	}
	vals, err := MultiGet(kv, [][]byte{[]byte("a"), []byte("nope"), []byte("e")})
	if err != nil {
		t.Fatal(err)
	}
	if string(vals[0]) != "1" || vals[1] != nil || vals[2] == nil || len(vals[2]) != 0 {
		t.Fatalf("fallback MultiGet = %q", vals)
	}
}

func TestPrismAdapterWriteAmp(t *testing.T) {
	s := openPrism(t)
	kv := s.Thread(0)
	for i := 0; i < 1000; i++ {
		kv.Put([]byte(fmt.Sprintf("key%05d", i)), make([]byte, 256))
	}
	dev, user := s.WriteAmp()
	if user != 1000*256 {
		t.Fatalf("user bytes = %d", user)
	}
	if dev <= 0 {
		t.Fatal("no device writes counted despite PWB overflow traffic")
	}
}
