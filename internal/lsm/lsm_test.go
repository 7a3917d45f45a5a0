package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/ssd"
)

func openTest(t *testing.T, mutate func(*Config)) *Store {
	t.Helper()
	cfg := Config{
		Name:          "test",
		Threads:       2,
		MemtableBytes: 16 << 10,
		DataBytes:     16 << 20,
		WALBytes:      4 << 20,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s := Open(cfg)
	t.Cleanup(func() { s.Close() })
	return s
}

func key(i int) []byte   { return []byte(fmt.Sprintf("user%08d", i)) }
func value(i int) []byte { return []byte(fmt.Sprintf("value-%08d-%016d", i, i)) }

func TestExtentAllocator(t *testing.T) {
	a := NewExtentAlloc(1000)
	o1, err := a.Alloc(100)
	if err != nil || o1 != 0 {
		t.Fatalf("alloc = %d, %v", o1, err)
	}
	o2, _ := a.Alloc(200)
	if o2 != 100 {
		t.Fatalf("second alloc at %d", o2)
	}
	a.Release(o1, 100)
	o3, _ := a.Alloc(50)
	if o3 != 0 {
		t.Fatalf("first-fit ignored freed hole: %d", o3)
	}
	a.Release(o3, 50)
	a.Release(o2, 200)
	// Everything free again: coalescing must give one extent of 1000.
	if a.freeBytes() != 1000 {
		t.Fatalf("free = %d", a.freeBytes())
	}
	if o, err := a.Alloc(1000); err != nil || o != 0 {
		t.Fatalf("full-range alloc after coalesce: %d, %v", o, err)
	}
	if _, err := a.Alloc(1); err == nil {
		t.Fatal("alloc beyond capacity succeeded")
	}
}

func TestMemtableBasics(t *testing.T) {
	m := newMemtable()
	m.put([]byte("b"), []byte("1"), false)
	m.put([]byte("a"), []byte("2"), false)
	m.put([]byte("b"), []byte("3"), false) // update
	m.put([]byte("c"), nil, true)          // tombstone
	if e, ok := m.get([]byte("b")); !ok || string(e.val) != "3" {
		t.Fatalf("get b = %+v, %v", e, ok)
	}
	if e, ok := m.get([]byte("c")); !ok || !e.tomb {
		t.Fatal("tombstone lost")
	}
	s := m.sorted()
	if len(s) != 3 || string(s[0].key) != "a" || string(s[1].key) != "b" || string(s[2].key) != "c" {
		t.Fatalf("sorted = %v", s)
	}
}

func TestSSTableBuildAndGet(t *testing.T) {
	dev := ssd.New(ssd.Config{Size: 1 << 20})
	alloc := NewExtentAlloc(1 << 20)
	clk := sim.NewClock(0)
	var ents []entry
	for i := 0; i < 500; i++ {
		ents = append(ents, entry{key: key(i), val: value(i)})
	}
	tbl, err := buildSSTable(clk, dev, alloc, ents)
	if err != nil {
		t.Fatal(err)
	}
	if clk.Now() == 0 {
		t.Fatal("build charged nothing")
	}
	if len(tbl.index) < 2 {
		t.Fatalf("expected multiple blocks, got %d", len(tbl.index))
	}
	cache := newBlockCache(1 << 20)
	for i := 0; i < 500; i += 23 {
		v, tomb, found := tbl.get(clk, cache, key(i))
		if !found || tomb || !bytes.Equal(v, value(i)) {
			t.Fatalf("get %d = %q, %v, %v", i, v, tomb, found)
		}
	}
	if _, _, found := tbl.get(clk, cache, []byte("zzz")); found {
		t.Fatal("found absent key")
	}
	// allEntries round trip.
	got := tbl.allEntries(clk, nil)
	if len(got) != 500 {
		t.Fatalf("allEntries = %d", len(got))
	}
}

func TestBloomFilterRejectsMost(t *testing.T) {
	b := newBloom(1000)
	for i := 0; i < 1000; i++ {
		b.add(key(i))
	}
	for i := 0; i < 1000; i++ {
		if !b.mayContain(key(i)) {
			t.Fatalf("false negative for %d", i)
		}
	}
	fp := 0
	for i := 10000; i < 20000; i++ {
		if b.mayContain(key(i)) {
			fp++
		}
	}
	if fp > 500 { // ~1% expected; allow 5%
		t.Fatalf("false positive rate %d/10000", fp)
	}
}

func TestPutGetThroughFlushAndCompaction(t *testing.T) {
	s := openTest(t, nil)
	h := s.Thread(0)
	const n = 3000
	for i := 0; i < n; i++ {
		if err := h.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Flushes == 0 {
		t.Fatal("no memtable flush happened")
	}
	for i := 0; i < n; i += 13 {
		got, err := h.Get(key(i))
		if err != nil || !bytes.Equal(got, value(i)) {
			t.Fatalf("get %d: %q, %v (stats %+v)", i, got, err, st)
		}
	}
}

func TestUpdatesShadowAcrossLevels(t *testing.T) {
	s := openTest(t, nil)
	h := s.Thread(0)
	for round := 0; round < 5; round++ {
		for i := 0; i < 800; i++ {
			if err := h.Put(key(i), value(round*10000+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 800; i += 7 {
		got, err := h.Get(key(i))
		if err != nil || !bytes.Equal(got, value(40000+i)) {
			t.Fatalf("key %d: %q, %v", i, got, err)
		}
	}
}

func TestDeleteTombstones(t *testing.T) {
	s := openTest(t, nil)
	h := s.Thread(0)
	for i := 0; i < 1000; i++ {
		h.Put(key(i), value(i))
	}
	if err := h.Delete(key(5)); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(key(99999)); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
	// Push the tombstone through flush/compaction.
	for i := 1000; i < 3000; i++ {
		h.Put(key(i), value(i))
	}
	if _, err := h.Get(key(5)); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("deleted key visible after compaction: %v", err)
	}
}

func TestScanOrderedAndShadowed(t *testing.T) {
	s := openTest(t, nil)
	h := s.Thread(0)
	for i := 0; i < 2000; i++ {
		h.Put(key(i), value(i))
	}
	h.Put(key(105), []byte("updated"))
	h.Delete(key(107))
	var keys []string
	err := h.Scan(key(100), 10, func(k, v []byte) bool {
		keys = append(keys, string(k))
		if string(k) == string(key(105)) && string(v) != "updated" {
			t.Fatalf("stale value in scan: %q", v)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 10 {
		t.Fatalf("scan length %d", len(keys))
	}
	for _, k := range keys {
		if k == string(key(107)) {
			t.Fatal("deleted key in scan")
		}
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("scan out of order: %v", keys)
		}
	}
}

func TestWriteStallsUnderLoad(t *testing.T) {
	s := openTest(t, func(c *Config) {
		c.MemtableBytes = 4 << 10
		c.L0StallTrigger = 2
		c.L0CompactTrigger = 2
	})
	h := s.Thread(0)
	for i := 0; i < 3000; i++ {
		if err := h.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Stalls == 0 {
		t.Fatal("no write stalls under pressure")
	}
}

func TestCompactionWriteAmplification(t *testing.T) {
	s := openTest(t, nil)
	h := s.Thread(0)
	for round := 0; round < 4; round++ {
		for i := 0; i < 1500; i++ {
			h.Put(key(i), value(i))
		}
	}
	dev, user := s.WriteAmp()
	if user == 0 || dev == 0 {
		t.Fatalf("write accounting broken: dev=%d user=%d", dev, user)
	}
	if float64(dev)/float64(user) < 1.5 {
		t.Fatalf("LSM WAF = %.2f, expected compaction amplification", float64(dev)/float64(user))
	}
}

func TestConcurrentHandles(t *testing.T) {
	s := openTest(t, func(c *Config) { c.Threads = 4 })
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.Thread(w)
			for i := 0; i < 500; i++ {
				k := []byte(fmt.Sprintf("w%d-%05d", w, i))
				if err := h.Put(k, value(i)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if got, err := h.Get(k); err != nil || !bytes.Equal(got, value(i)) {
					t.Errorf("get %s: %q, %v", k, got, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestMatrixKVModeWorks(t *testing.T) {
	s := openTest(t, func(c *Config) {
		c.MatrixL0 = true
		c.MatrixCap = 64 << 10
		c.NumDataDevs = 2
	})
	h := s.Thread(0)
	const n = 4000
	for i := 0; i < n; i++ {
		if err := h.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatal("column compaction never ran")
	}
	for i := 0; i < n; i += 17 {
		got, err := h.Get(key(i))
		if err != nil || !bytes.Equal(got, value(i)) {
			t.Fatalf("matrix get %d: %q, %v (stats %+v)", i, got, err, st)
		}
	}
	// Updates must shadow across matrix and L1.
	h.Put(key(3), []byte("fresh"))
	got, err := h.Get(key(3))
	if err != nil || string(got) != "fresh" {
		t.Fatalf("matrix update: %q, %v", got, err)
	}
	cnt := 0
	h.Scan(key(0), 20, func(k, v []byte) bool { cnt++; return true })
	if cnt != 20 {
		t.Fatalf("matrix scan visited %d", cnt)
	}
}

func TestBaselineConfigsOpen(t *testing.T) {
	r := Open(RocksDBNVMConfig(2))
	defer r.Close()
	m := Open(MatrixKVConfig(2, 2))
	defer m.Close()
	for i, s := range []*Store{r, m} {
		h := s.Thread(0)
		for k := 0; k < 300; k++ {
			if err := h.Put(key(k), value(k)); err != nil {
				t.Fatalf("engine %d put: %v", i, err)
			}
		}
		got, err := h.Get(key(42))
		if err != nil || !bytes.Equal(got, value(42)) {
			t.Fatalf("engine %d get: %q, %v", i, got, err)
		}
	}
}

func TestVirtualTimeCharged(t *testing.T) {
	s := openTest(t, nil)
	h := s.Thread(0)
	h.Put(key(1), value(1))
	if h.Clock().Now() == 0 {
		t.Fatal("put free")
	}
	before := h.Clock().Now()
	h.Get(key(1))
	if h.Clock().Now() <= before {
		t.Fatal("get free")
	}
}
