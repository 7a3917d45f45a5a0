package shard

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestShardAsyncFanout drives async submissions whose keys spread over
// every shard through one router handle: handles complete, values land
// on their owning shards, counters sum across shards, and Flush folds
// the slowest shard's async timeline into the router thread's clock.
func TestShardAsyncFanout(t *testing.T) {
	s := small(t, 4, nil)
	th := s.Thread(0)
	const ops = 400
	var hs []*core.Handle
	for i := 0; i < ops; i++ {
		hs = append(hs, th.PutAsync([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%05d", i))))
	}
	th.Flush()
	for i, h := range hs {
		if err := h.Wait(); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Every shard should have seen a slice of the stream.
	for j := 0; j < s.NumShards(); j++ {
		if n := reg(t, s.Shard(j)).n("core.async_ops", "op", "put"); n == 0 {
			t.Fatalf("shard %d saw no async puts", j)
		}
	}
	if n := reg(t, s).n("core.async_ops", "op", "put"); n != ops {
		t.Fatalf("summed AsyncPuts = %d, want %d", n, ops)
	}
	// Flush folded the makespan: the router clock covers every shard's
	// async timeline.
	for j := 0; j < s.NumShards(); j++ {
		if now := s.Shard(j).Thread(0).AsyncNow(); th.Clk.Now() < now {
			t.Fatalf("router clock %d behind shard %d async timeline %d", th.Clk.Now(), j, now)
		}
	}
	// Reads (async and sync) observe the completed writes.
	for i := 0; i < ops; i += 37 {
		key := []byte(fmt.Sprintf("k%05d", i))
		want := []byte(fmt.Sprintf("v%05d", i))
		if v, err := th.GetAsync(key).Value(); err != nil || !bytes.Equal(v, want) {
			t.Fatalf("GetAsync(%s) = %q, %v", key, v, err)
		}
		if v, err := th.Get(key); err != nil || !bytes.Equal(v, want) {
			t.Fatalf("Get(%s) = %q, %v", key, v, err)
		}
	}
	if err := th.DeleteAsync([]byte("k00000")).Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := th.GetAsync([]byte("k00000")).Value(); err != core.ErrNotFound {
		t.Fatalf("after DeleteAsync: %v, want ErrNotFound", err)
	}
}
