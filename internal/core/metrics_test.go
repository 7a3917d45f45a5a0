package core

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/obs"
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
		if err := th.deleteSync(key, 0); err != nil {
			t.Fatalf("delete: %v", err)
		}
	}
}

// reading is one snapshot of a store's registry, the surface METRICS.md
// documents and benchmark/ and operators read: tests check the counters
// there, so a miswired series fails the test of its counter's behaviour.
type reading struct {
	t testing.TB
	obs.Snapshot
}

// reg snapshots s's registry.
func reg(t testing.TB, s *Store) reading { return reading{t, s.Metrics()} }

// n sums the series named name that carry labels (key/value pairs). A
// name or label no series has fails the test, so a mistyped name cannot
// read as 0.
func (r reading) n(name string, labels ...string) int64 {
	r.t.Helper()
	v, ok := r.Lookup(name, labels...)
	if !ok {
		r.t.Fatalf("no series %s%v in the registry", name, labels)
	}
	return int64(v)
}

// TestReadingRejectsUnknownSeries: the helper fails on a name no series
// has, and on a label value no series carries, rather than reading 0.
func TestReadingRejectsUnknownSeries(t *testing.T) {
	s := small(t, nil)
	for _, c := range []struct {
		name   string
		labels []string
	}{{"core.opz", nil}, {"core.ops", []string{"op", "merge"}}} {
		ft := &fatalT{TB: t}
		func() {
			defer func() { recover() }()
			reg(ft, s).n(c.name, c.labels...)
		}()
		if !ft.failed {
			t.Errorf("reading %s%v did not fail the test", c.name, c.labels)
		}
	}
	if n := reg(t, s).n("core.ops", "op", "scan"); n != 0 {
		t.Errorf("core.ops{op=scan} = %d on a fresh store", n)
	}
}

// fatalT records a Fatalf instead of ending the test, and panics to stop
// the caller the way FailNow would.
type fatalT struct {
	testing.TB
	failed bool
}

func (f *fatalT) Helper() {}

func (f *fatalT) Fatalf(string, ...any) {
	f.failed = true
	panic("fatal")
}

// rareSeries are the core counter series the workload of
// TestMetricsMixedWorkload need not move: faults, races and pressure it
// does not stage.
var rareSeries = map[string]bool{
	"svc.scan_rewrites": true, "svc.chain_rewrites": true, "svc.touch_drops": true,
	"svc.reclaim_admit_skips": true, "core.reclaim_publish_lost": true, "pwb.scan_torn_record": true,
	"core.put_stalls": true, "core.puts_stalled": true, "tier.fallback_bytes": true,
}

// TestMetricsMixedWorkload runs a mixed workload — sync, batch and async
// ops, reclaim with tier steering, GC and a demotion — and requires it to
// move every core counter series but the rare ones, and the derived
// series (WAF, latency and batch-size histograms) to agree with the
// counters they are derived from.
func TestMetricsMixedWorkload(t *testing.T) {
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
	// stays far below the trigger): draining the rings hands it to the SVC,
	// and its second point read, a hit there, promotes it. Then leave
	// chunks half live for GC — keys written once land on the capacity
	// tier, and every other one is overwritten — and collect every
	// device. Fill the fast tier past half with keys written twice (hot),
	// cool every key and demote from it until something moves, and scan
	// every key, leaving the first-touch rows out of the SVC.
	th := st.Thread(1)
	if err := th.Put([]byte("read-in-ring"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	mustGet(t, th, []byte("read-in-ring"))
	st.cache.Sync()
	drain(t, st)
	mustGet(t, th, []byte("read-in-ring"))
	val := make([]byte, 1024)
	for step := 1; step <= 2; step++ {
		for i := 0; i < 256; i += step {
			if err := th.Put([]byte(fmt.Sprintf("gc-%03d", i)), val); err != nil {
				t.Fatal(err)
			}
		}
		drain(t, st)
	}
	p := st.newThread(0, nil, nil, nil)
	for dev := range st.vsm.Stores {
		st.collect(p, dev)
	}
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
	for cursor, step := 0, 0; reg(t, st).n("tier.demotions") == 0; step++ {
		if step == 64 {
			t.Fatalf("nothing demoted from the fast tier, %d of its %d chunks free", fast.FreeChunks(), fast.Chunks())
		}
		cursor = st.demoteStep(p, cursor)
	}
	if err := th.Scan(nil, 0, func(KV) bool { return true }); err != nil {
		t.Fatal(err)
	}
	single := reg(t, st) // the ops after this are batch and async ones
	kvs := []KV{{Key: []byte("batch-1"), Value: []byte("v1")}, {Key: []byte("batch-2"), Value: []byte("v2")}}
	if err := th.PutBatchTS(kvs, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := th.MultiGetInto([][]byte{kvs[0].Key, []byte("key-00100")}, nil); err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Handle{th.PutTSAsync([]byte("async"), []byte("v"), 0), th.GetAsync([]byte("async")), th.DeleteTSAsync([]byte("async"), 0)} {
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Stop every background pass and the cache manager: the counters
	// stand still from here.
	st.Close()

	// A per-device series moves on some device: only the fast tier is
	// collected.
	snap := reg(t, st)
	moved := map[string]bool{}
	for _, m := range snap.Metrics {
		if m.Type != obs.TypeCounter || rareSeries[m.Name] {
			continue
		}
		id := m.Name
		for k, v := range m.Labels {
			if k != "device" {
				id += fmt.Sprintf("{%s=%s}", k, v)
			}
		}
		moved[id] = moved[id] || m.Value != 0
	}
	for id, ok := range moved {
		if !ok {
			t.Errorf("%s is 0: the workload does not reach it", id)
		}
	}

	// WAF gauge must equal sum(ssd bytes written)/user bytes.
	var devBytes int64
	for _, d := range st.ssds {
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
	userBytes := snap.n("core.user_bytes")
	want := float64(devBytes) / float64(userBytes)
	if diff := waf - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("ssd.waf = %v, want %v", waf, want)
	}
	if waf < 1.0 {
		t.Errorf("ssd.waf = %v; values flow PWB->VS so device bytes should exceed user bytes", waf)
	}

	// Per-device WAF rows: each device's acked bytes over the user bytes
	// first landed there, and the denominators must sum to what the
	// reclaimers attributed (a subset of core.user_bytes — values still
	// in the PWB ring or superseded before migration never land).
	var attributed int64
	for i, d := range st.ssds {
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
	if attributed == 0 || attributed > userBytes {
		t.Errorf("per-device user bytes attributed = %d, want in (0, %d]", attributed, userBytes)
	}

	// Latency histograms must have one sample per single sync operation.
	for _, op := range []string{"put", "get", "scan"} {
		n := single.n("core.ops", "op", op)
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
	raw, err := json.Marshal(snap.Snapshot)
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
// through one load of its pointer: a crashed store's Metrics reads them
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
