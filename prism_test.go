package prism_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro"
	"repro/internal/model"
)

func openSmall(t *testing.T) *prism.Store {
	t.Helper()
	s, err := prism.Open(prism.Options{
		NumThreads:        2,
		PWBBytesPerThread: 128 << 10,
		HSITCapacity:      1 << 14,
		NumSSDs:           2,
		SSDBytes:          8 << 20,
		SVCBytes:          256 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPublicAPIRoundTrip(t *testing.T) {
	s := openSmall(t)
	th := s.Thread(0)
	if err := th.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := th.Get([]byte("k"))
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := th.Get([]byte("nope")); !errors.Is(err, prism.ErrNotFound) {
		t.Fatalf("missing key error = %v", err)
	}
	if err := th.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Get([]byte("k")); !errors.Is(err, prism.ErrNotFound) {
		t.Fatal("delete did not take effect")
	}
}

func TestPublicAPIScan(t *testing.T) {
	s := openSmall(t)
	th := s.Thread(0)
	for i := 0; i < 50; i++ {
		th.Put([]byte(fmt.Sprintf("key%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	var got []string
	th.Scan([]byte("key010"), 5, func(kv prism.KV) bool {
		got = append(got, string(kv.Key))
		return true
	})
	want := []string{"key010", "key011", "key012", "key013", "key014"}
	if len(got) != len(want) {
		t.Fatalf("scan = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan = %v, want %v", got, want)
		}
	}
}

func TestPublicAPICrashRecover(t *testing.T) {
	s := openSmall(t)
	th := s.Thread(0)
	for i := 0; i < 500; i++ {
		th.Put([]byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("val%04d", i)))
	}
	s.Crash()
	rep, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LiveKeys != 500 || rep.LostKeys != 0 {
		t.Fatalf("recovery report: %+v", rep)
	}
	got, err := th.Get([]byte("key0123"))
	if err != nil || string(got) != "val0123" {
		t.Fatalf("post-recovery read: %q, %v", got, err)
	}
}

func TestPublicAPIConcurrentThreads(t *testing.T) {
	s := openSmall(t)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := s.Thread(w)
			for i := 0; i < 400; i++ {
				k := []byte(fmt.Sprintf("w%d-%04d", w, i))
				if err := th.Put(k, []byte("x")); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// The model harness through the public API.
func TestPublicAPIMatchesModel(t *testing.T) {
	model.Run(t, model.Config{Keys: 200, Steps: 1000}, func(t *testing.T) model.Level[prism.KV, *prism.Handle] {
		s := openSmall(t)
		return model.Level[prism.KV, *prism.Handle]{Name: "public API", NotFound: prism.ErrNotFound,
			Client: func(c int) model.Ops[prism.KV, *prism.Handle] {
				th := s.Thread(c)
				return model.Ops[prism.KV, *prism.Handle]{Put: th.Put, Get: th.Get, Del: th.Delete, Scan: th.Scan,
					PutBatch: th.PutBatch, MultiGet: th.MultiGet, PutAsync: th.PutAsync, GetAsync: th.GetAsync, DelAsync: th.DeleteAsync}
			}}
	})
}
