package slmdb

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/engine"
)

func open(t *testing.T, mutate func(*Config)) *Store {
	t.Helper()
	cfg := Config{MemtableBytes: 8 << 10, SSDBytes: 16 << 20, PageCacheBytes: 256 << 10}
	if mutate != nil {
		mutate(&cfg)
	}
	s := Open(cfg)
	t.Cleanup(func() { s.Close() })
	return s
}

func key(i int) []byte   { return []byte(fmt.Sprintf("user%08d", i)) }
func value(i int) []byte { return []byte(fmt.Sprintf("value-%08d-%016d", i, i)) }

func TestPutGetMemtable(t *testing.T) {
	s := open(t, nil)
	if err := s.Put(key(1), value(1)); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key(1))
	if err != nil || !bytes.Equal(got, value(1)) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := s.Get(key(2)); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("missing: %v", err)
	}
}

func TestFlushAndReadFromFile(t *testing.T) {
	s := open(t, nil)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := s.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.stats().Flushes == 0 {
		t.Fatal("no flush despite memtable overflow")
	}
	for i := 0; i < n; i += 13 {
		got, err := s.Get(key(i))
		if err != nil || !bytes.Equal(got, value(i)) {
			t.Fatalf("get %d: %q, %v", i, got, err)
		}
	}
}

func TestUpdatesAndSelectiveCompaction(t *testing.T) {
	s := open(t, nil)
	const keys = 300
	for round := 0; round < 12; round++ {
		for i := 0; i < keys; i++ {
			if err := s.Put(key(i), value(round*keys+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.stats()
	if st.Compactions == 0 {
		t.Fatal("selective compaction never ran despite churn")
	}
	for i := 0; i < keys; i += 11 {
		want := value(11*keys + i)
		got, err := s.Get(key(i))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("key %d after compaction: %q, %v", i, got, err)
		}
	}
}

func TestDelete(t *testing.T) {
	s := open(t, nil)
	for i := 0; i < 500; i++ {
		s.Put(key(i), value(i))
	}
	if err := s.Delete(key(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key(5)); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("deleted visible: %v", err)
	}
	// Push the tombstone through a flush.
	for i := 500; i < 1200; i++ {
		s.Put(key(i), value(i))
	}
	if _, err := s.Get(key(5)); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("deleted key resurrected after flush: %v", err)
	}
	if err := s.Delete(key(99999)); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("delete of missing key: %v", err)
	}
}

func TestScanOrderedWithMemtableOverlay(t *testing.T) {
	s := open(t, nil)
	for i := 0; i < 1500; i++ {
		s.Put(key(i), value(i))
	}
	s.Put(key(103), []byte("fresh")) // memtable overlay
	var keys []string
	err := s.Scan(key(100), 10, func(k, v []byte) bool {
		keys = append(keys, string(k))
		if string(k) == string(key(103)) && string(v) != "fresh" {
			t.Fatalf("stale scan value %q", v)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 10 {
		t.Fatalf("scan visited %d", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("out of order: %v", keys)
		}
	}
}

func TestVirtualTimeAndWAF(t *testing.T) {
	s := open(t, nil)
	for i := 0; i < 1000; i++ {
		s.Put(key(i), value(i))
	}
	if s.Clock().Now() == 0 {
		t.Fatal("no virtual time charged")
	}
	dev, user := s.WriteAmp()
	if user == 0 || dev == 0 {
		t.Fatalf("WAF accounting dev=%d user=%d", dev, user)
	}
}

func TestSingleThreadedContract(t *testing.T) {
	s := open(t, nil)
	if s.NumThreads() != 1 {
		t.Fatal("SLM-DB must expose one handle")
	}
	if s.Thread(0) == nil {
		t.Fatal("nil handle")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Thread(1) did not panic")
		}
	}()
	s.Thread(1)
}
