package shard

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ssd"
)

// TestStatsSumsEveryShardCounter: the router's Stats is the per-shard
// Stats summed, for every integer field core.Stats has — the nested VS
// and SVC ones included. The fields are walked by reflection, so a
// counter added to core.Stats is checked without being listed here. The
// store is tiered and the traffic writes, overwrites and reads, so the
// reclaim, tiering and Value Storage counters all move.
func TestStatsSumsEveryShardCounter(t *testing.T) {
	s := small(t, 2, func(o *core.Options) {
		o.SSDConfigs = []ssd.Config{
			{Size: 1 << 20},
			{Size: 8 << 20, WriteLatency: 80_000, WriteBandwidth: 1_000_000_000},
		}
		o.EnableTiering = true
	})
	th := s.Thread(0)
	val := bytes.Repeat([]byte{'v'}, 512)
	const hot, cold = 32, 1024
	for r := 0; r < 8; r++ {
		for i := r * cold / 8; i < (r+1)*cold/8; i++ {
			if err := th.Put(key(hot+i), val); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < hot; i++ {
			if err := th.Put(key(i), val); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < hot+cold; i += 3 {
		if _, err := th.Get(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil { // joins the background passes: the counters stand still
		t.Fatal(err)
	}

	got := s.Stats()
	parts := make([]reflect.Value, s.NumShards())
	for j := range parts {
		parts[j] = reflect.ValueOf(s.Shard(j).Stats())
	}
	checkSummed(t, "", reflect.ValueOf(got), parts)
	for _, moved := range []int64{got.PWBRecordsScanned, got.TierHotSteeredBytes, got.TierColdSteeredBytes, got.VS.UserBytes, got.VSReads} {
		if moved == 0 {
			t.Fatalf("the workload left a counter it is meant to move at 0: %+v", got)
		}
	}
}

// checkSummed requires every integer field of sum, recursively, to equal
// the total of the same field over parts.
func checkSummed(t *testing.T, path string, sum reflect.Value, parts []reflect.Value) {
	t.Helper()
	for i := 0; i < sum.NumField(); i++ {
		name := path + sum.Type().Field(i).Name
		sub := make([]reflect.Value, len(parts))
		for j, p := range parts {
			sub[j] = p.Field(i)
		}
		switch f := sum.Field(i); f.Kind() {
		case reflect.Struct:
			checkSummed(t, name+".", f, sub)
		case reflect.Int, reflect.Int64:
			var want int64
			for _, p := range sub {
				want += p.Int()
			}
			if f.Int() != want {
				t.Errorf("Stats().%s = %d, the shards' sum to %d", name, f.Int(), want)
			}
		default:
			t.Errorf("Stats().%s is a %s: neither core.Stats.Add nor this test sums it", name, f.Kind())
		}
	}
}
