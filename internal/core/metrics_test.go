package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ssd"
)

// runMixedWorkload drives enough traffic through st to touch every
// subsystem: puts that overflow the PWB into Value Storage, gets that hit
// SVC/PWB/VS, scans, and deletes.
func runMixedWorkload(t *testing.T, st *Store) {
	t.Helper()
	th := st.Thread(0)
	val := make([]byte, 1024)
	for i := 0; i < 4000; i++ {
		key := []byte(fmt.Sprintf("key-%05d", i%500))
		if err := th.Put(key, val); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	for i := 0; i < 2000; i++ {
		key := []byte(fmt.Sprintf("key-%05d", i%500))
		if _, err := th.Get(key); err != nil {
			t.Fatalf("get: %v", err)
		}
	}
	for i := 0; i < 20; i++ {
		if err := th.Scan([]byte("key-"), 50, func(KV) bool { return true }); err != nil {
			t.Fatalf("scan: %v", err)
		}
	}
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("key-%05d", i))
		if err := th.Delete(key); err != nil {
			t.Fatalf("delete: %v", err)
		}
	}
}

// statsTwins names the registry twin of every Stats field, by the field's
// path: a metric and its labels, or (nil labels) the sum of the metric's
// series, per device for the vs.* family. A field may have two twins.
var statsTwins = []struct {
	field, metric string
	labels        map[string]string
}{
	{"Puts", "core.ops", map[string]string{"op": "put"}},
	{"Gets", "core.ops", map[string]string{"op": "get"}},
	{"Deletes", "core.ops", map[string]string{"op": "delete"}},
	{"Scans", "core.ops", map[string]string{"op": "scan"}},
	{"BatchPuts", "core.batch_ops", map[string]string{"op": "put"}},
	{"BatchGets", "core.batch_ops", map[string]string{"op": "get"}},
	{"AsyncPuts", "core.async_ops", map[string]string{"op": "put"}},
	{"AsyncGets", "core.async_ops", map[string]string{"op": "get"}},
	{"AsyncDeletes", "core.async_ops", map[string]string{"op": "delete"}},
	{"SVCHits", "core.read_path", map[string]string{"source": "svc"}},
	{"SVCHits", "svc.hits", nil},
	{"PWBHits", "core.read_path", map[string]string{"source": "pwb"}},
	{"VSReads", "core.read_path", map[string]string{"source": "vs"}},
	{"UserBytesWritten", "core.user_bytes", nil},
	{"Reclaims", "pwb.reclaims", nil},
	{"PWBLiveMigrated", "pwb.live_migrated", nil},
	{"PWBRecordsScanned", "pwb.records_scanned", nil},
	{"ScanRewrites", "svc.scan_rewrites", nil},
	{"ReclaimAdmits", "svc.reclaim_admits", nil},
	{"ReclaimAdmitSkips", "svc.reclaim_admit_skips", nil},
	{"ScanDeferred", "svc.scan_deferred", nil},
	{"PutStalls", "core.put_stalls", nil},
	{"PutsStalled", "core.puts_stalled", nil},
	{"ReclaimPublishLost", "core.reclaim_publish_lost", nil},
	{"ScanTornRecords", "pwb.scan_torn_record", nil},
	{"IndexSpaceBytes", "index.space_bytes", nil},
	{"HSITSpaceBytes", "hsit.space_bytes", nil},
	{"TierHotSteeredBytes", "tier.steered_bytes", map[string]string{"class": "hot"}},
	{"TierColdSteeredBytes", "tier.steered_bytes", map[string]string{"class": "cold"}},
	{"TierHotFallbackBytes", "tier.fallback_bytes", map[string]string{"class": "hot"}},
	{"TierColdFallbackBytes", "tier.fallback_bytes", map[string]string{"class": "cold"}},
	{"TierDemotions", "tier.demotions", nil},
	{"TierDemotedBytes", "tier.demoted_bytes", nil},
	{"VS.ChunksWritten", "vs.chunks_written", nil},
	{"VS.BytesWritten", "vs.bytes_written", nil},
	{"VS.UserBytes", "vs.user_bytes", nil},
	{"VS.GCRuns", "vs.gc_runs", nil},
	{"VS.GCLiveMoved", "vs.gc_live_moved", nil},
	{"VS.GCBytesMoved", "vs.gc_bytes_moved", nil},
	{"VS.FreeChunks", "vs.free_chunks", nil},
	{"VS.LiveChunks", "vs.live_chunks", nil},
	{"SVC.Bytes", "svc.bytes", nil},
	{"SVC.Entries", "svc.entries", nil},
	{"SVC.Evictions", "svc.evictions", nil},
	{"SVC.Promotions", "svc.promotions", nil},
	{"SVC.ChainRewrites", "svc.chain_rewrites", nil},
	{"SVC.TouchDrops", "svc.touch_drops", nil},
}

// rareStats are the Stats fields the workload of TestMetricsMatchStats
// need not move: faults, races and pressure it does not stage.
var rareStats = map[string]bool{
	"ScanRewrites": true, "SVC.ChainRewrites": true, "SVC.TouchDrops": true,
	"ReclaimAdmitSkips": true, "ReclaimPublishLost": true, "ScanTornRecords": true,
	"PutStalls": true, "PutsStalled": true,
	"TierHotFallbackBytes": true, "TierColdFallbackBytes": true,
}

// statsFields flattens v's integer fields into path → value, nested
// structs as "Outer.Inner".
func statsFields(v reflect.Value, prefix string, out map[string]int64) {
	for i := 0; i < v.NumField(); i++ {
		name := prefix + v.Type().Field(i).Name
		if f := v.Field(i); f.Kind() == reflect.Struct {
			statsFields(f, name+".", out)
		} else {
			out[name] = f.Int()
		}
	}
}

// TestMetricsMatchStats runs a mixed workload — sync, batch and async ops,
// reclaim with tier steering, GC and a demotion — and cross-checks every
// Stats field against its registry twin (statsTwins): every number
// surfaced through the registry must agree with the subsystem that owns
// it, and every field has a twin.
func TestMetricsMatchStats(t *testing.T) {
	st, err := Open(Options{
		NumThreads:        2,
		PWBBytesPerThread: 64 << 10,
		SSDConfigs: []ssd.Config{
			{Size: 512 << 10}, // the fast tier: 8 chunks, fewer than the hot keys fill
			{Size: 8 << 20, WriteLatency: 80_000, WriteBandwidth: 1_000_000_000},
		},
		ChunkSize:     64 << 10,
		SVCBytes:      256 << 10,
		EnableTiering: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	runMixedWorkload(t, st)
	// A value read in its ring, which no background pass takes (ring 1
	// stays far below the trigger): draining the rings hands it to the SVC.
	// Then collect the fast tier, fill it past half with keys written twice
	// (hot), cool every key and demote from it until something moves, and
	// scan every key, leaving the first-touch rows out of the SVC.
	th := st.Thread(1)
	if err := th.Put([]byte("read-in-ring"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	mustGet(t, th, []byte("read-in-ring"))
	st.cache.Sync()
	drain(t, st)
	p := st.newThread(0, nil, nil, nil)
	st.collect(p, st.tierFast)
	val := make([]byte, 1024)
	for round := 0; round < 2; round++ {
		for i := 0; i < 300; i++ {
			if err := th.Put([]byte(fmt.Sprintf("hot-%03d", i)), val); err != nil {
				t.Fatal(err)
			}
		}
		drain(t, st)
	}
	st.pop.clear()
	fast := st.vsm.Stores[st.tierFast]
	for cursor, step := 0, 0; st.stats.tierDemotions.Load() == 0; step++ {
		if step == 64 {
			t.Fatalf("nothing demoted from the fast tier, %d of its %d chunks free", fast.FreeChunks(), fast.Chunks())
		}
		cursor = st.demoteStep(p, cursor)
	}
	if err := th.Scan(nil, 0, func(KV) bool { return true }); err != nil {
		t.Fatal(err)
	}
	single := st.Stats() // the ops after this are batch and async ones
	kvs := []KV{{Key: []byte("batch-1"), Value: []byte("v1")}, {Key: []byte("batch-2"), Value: []byte("v2")}}
	if err := th.PutBatch(kvs); err != nil {
		t.Fatal(err)
	}
	if _, err := th.MultiGet([][]byte{kvs[0].Key, []byte("key-00100")}); err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Handle{th.PutAsync([]byte("async"), []byte("v")), th.GetAsync([]byte("async")), th.DeleteAsync([]byte("async"))} {
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Stop every background pass and the cache manager: the two readings
	// below then see the same counters.
	st.Close()

	snap := st.Metrics()
	stats := st.Stats()
	fields := map[string]int64{}
	statsFields(reflect.ValueOf(stats), "", fields)
	twinned := map[string]bool{}
	for _, tw := range statsTwins {
		want, ok := fields[tw.field]
		if !ok {
			t.Errorf("statsTwins names %s, which Stats does not have", tw.field)
			continue
		}
		twinned[tw.field] = true
		got := snap.Sum(tw.metric)
		if tw.labels != nil {
			m, ok := snap.Get(tw.metric, tw.labels)
			if !ok {
				t.Errorf("metric %s%v not in snapshot", tw.metric, tw.labels)
				continue
			}
			got = m.Value
		}
		if int64(got) != want {
			t.Errorf("%s%v = %v, Stats.%s says %d", tw.metric, tw.labels, got, tw.field, want)
		}
		if want == 0 && !rareStats[tw.field] {
			t.Errorf("Stats.%s is 0: the workload does not reach it", tw.field)
		}
	}
	for f := range fields {
		if !twinned[f] {
			t.Errorf("Stats.%s has no registry twin in statsTwins", f)
		}
	}

	// WAF gauge must equal sum(ssd bytes written)/user bytes.
	var devBytes int64
	for _, d := range st.SSDs() {
		devBytes += d.Stats().BytesWritten
	}
	if devBytes == 0 {
		t.Fatal("workload never reached the SSDs; enlarge it")
	}
	wafM, ok := snap.Get("ssd.waf", nil)
	if !ok {
		t.Fatal("ssd.waf (aggregate row) missing")
	}
	waf := wafM.Value
	want := float64(devBytes) / float64(stats.UserBytesWritten)
	if diff := waf - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("ssd.waf = %v, want %v", waf, want)
	}
	if waf < 1.0 {
		t.Errorf("ssd.waf = %v; values flow PWB->VS so device bytes should exceed user bytes", waf)
	}

	// Per-device WAF rows: each device's acked bytes over the user bytes
	// first landed there, and the denominators must sum to what the
	// reclaimers attributed (a subset of UserBytesWritten — values still
	// in the PWB ring or superseded before migration never land).
	var attributed int64
	for i, d := range st.SSDs() {
		lbl := map[string]string{"device": fmt.Sprintf("ssd%d", i)}
		m, ok := snap.Get("ssd.waf", lbl)
		if !ok {
			t.Fatalf("ssd.waf%v missing", lbl)
		}
		user := st.vsm.Stores[i].UserBytes()
		attributed += user
		if user == 0 {
			if m.Value != 0 {
				t.Errorf("ssd.waf%v = %v with zero user bytes, want 0", lbl, m.Value)
			}
			continue
		}
		dw := float64(d.Stats().BytesWritten) / float64(user)
		if diff := m.Value - dw; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("ssd.waf%v = %v, want %v", lbl, m.Value, dw)
		}
	}
	if attributed == 0 || attributed > stats.UserBytesWritten {
		t.Errorf("per-device user bytes attributed = %d, want in (0, %d]", attributed, stats.UserBytesWritten)
	}

	// Latency histograms must have one sample per single sync operation.
	for op, n := range map[string]int64{"put": single.Puts, "get": single.Gets, "scan": single.Scans} {
		m, ok := snap.Get("core.op_latency", map[string]string{"op": op})
		if !ok || m.Hist == nil {
			t.Fatalf("core.op_latency{op=%s} missing or not a histogram", op)
		}
		if m.Hist.Count != n {
			t.Errorf("op_latency{%s}.Count = %d, want %d", op, m.Hist.Count, n)
		}
		if n > 0 && m.Hist.P50 <= 0 {
			t.Errorf("op_latency{%s}.P50 = %v, want > 0", op, m.Hist.P50)
		}
	}

	// Batch-size histogram totals must agree with the TCQ counters.
	m, ok := snap.Get("tcq.batch_size", nil)
	if !ok || m.Hist == nil {
		t.Fatal("tcq.batch_size missing")
	}
	var batches int64
	for _, q := range st.queues {
		batches += q.Stats().Batches
	}
	if m.Hist.Count != batches {
		t.Errorf("tcq.batch_size.Count = %d, queue stats say %d batches", m.Hist.Count, batches)
	}

	// The whole snapshot must serialize to valid JSON and round-trip.
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back struct {
		Metrics []json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(back.Metrics) != len(snap.Metrics) {
		t.Errorf("JSON round-trip lost metrics: %d != %d", len(back.Metrics), len(snap.Metrics))
	}
}

// Regression: Crash drops the SVC, so the svc.* gauges read the cache
// through the accessor Stats uses: a crashed store's Metrics reads them
// as 0 instead of dereferencing nil, and after Recover they follow the
// fresh cache.
func TestMetricsAfterCrash(t *testing.T) {
	s := small(t, nil)
	th := s.Thread(0)
	entries := func() float64 {
		t.Helper()
		m, ok := s.Metrics().Get("svc.entries", nil)
		if !ok {
			t.Fatal("svc.entries not in snapshot")
		}
		return m.Value
	}
	// A value read from Value Storage is admitted to the SVC.
	cacheOne := func() {
		t.Helper()
		drain(t, s)
		if _, err := th.Get(key(7)); err != nil {
			t.Fatal(err)
		}
		s.cache.Sync()
		if n := entries(); n == 0 {
			t.Fatal("svc.entries = 0 after a Value Storage read")
		}
	}
	for i := 0; i < 2000; i++ {
		if err := th.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	cacheOne()
	s.Crash()
	if n := entries(); n != 0 {
		t.Fatalf("svc.entries = %v on a crashed store, want 0", n)
	}
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	cacheOne()
}

// TestMetricsTABaseline checks the DisableCombining configuration exports
// the ta.* family instead of tcq.*.
func TestMetricsTABaseline(t *testing.T) {
	st, err := Open(Options{DisableCombining: true, PWBBytesPerThread: 64 << 10, SSDBytes: 4 << 20, ChunkSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	names := make(map[string]bool)
	for _, n := range st.Metrics().Names() {
		names[n] = true
	}
	if !names["ta.batch_size"] || !names["ta.batches"] {
		t.Error("TA store missing ta.* metrics")
	}
	if names["tcq.batch_size"] || names["tcq.batches"] {
		t.Error("TA store exports tcq.* metrics")
	}
}
