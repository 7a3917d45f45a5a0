package core

import (
	"encoding/json"
	"fmt"
	"testing"
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

// TestMetricsMatchStats runs a mixed workload and cross-checks the obs
// snapshot against the pre-existing Stats() accessors: every number
// surfaced through the registry must agree with the subsystem that owns
// it.
func TestMetricsMatchStats(t *testing.T) {
	st, err := Open(Options{
		NumThreads:        2,
		PWBBytesPerThread: 64 << 10,
		SSDBytes:          8 << 20,
		ChunkSize:         64 << 10,
		SVCBytes:          256 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	runMixedWorkload(t, st)
	// Quiesce the SVC manager goroutine: admissions and evictions are
	// processed asynchronously, and comparing two point-in-time readings
	// while it still drains its queue would race the counters.
	if st.cache != nil {
		st.cache.Sync()
	}

	snap := st.Metrics()
	stats := st.Stats()

	wantCounter := func(name string, labels map[string]string, want int64) {
		t.Helper()
		m, ok := snap.Get(name, labels)
		if !ok {
			t.Fatalf("metric %s%v not in snapshot", name, labels)
		}
		if int64(m.Value) != want {
			t.Errorf("%s%v = %v, Stats says %d", name, labels, m.Value, want)
		}
	}

	wantCounter("core.ops", map[string]string{"op": "put"}, stats.Puts)
	wantCounter("core.ops", map[string]string{"op": "get"}, stats.Gets)
	wantCounter("core.ops", map[string]string{"op": "delete"}, stats.Deletes)
	wantCounter("core.ops", map[string]string{"op": "scan"}, stats.Scans)
	wantCounter("core.read_path", map[string]string{"source": "svc"}, stats.SVCHits)
	wantCounter("core.read_path", map[string]string{"source": "pwb"}, stats.PWBHits)
	wantCounter("core.read_path", map[string]string{"source": "vs"}, stats.VSReads)
	wantCounter("core.user_bytes", nil, stats.UserBytesWritten)
	wantCounter("svc.hits", nil, stats.SVCHits)
	wantCounter("svc.evictions", nil, stats.SVC.Evictions)
	wantCounter("pwb.reclaims", nil, stats.Reclaims)
	wantCounter("pwb.live_migrated", nil, stats.PWBLiveMigrated)
	wantCounter("hsit.space_bytes", nil, stats.HSITSpaceBytes)
	wantCounter("index.space_bytes", nil, stats.IndexSpaceBytes)

	if got, want := int64(snap.Sum("vs.bytes_written")), stats.VS.BytesWritten; got != want {
		t.Errorf("sum(vs.bytes_written) = %d, Stats says %d", got, want)
	}
	if got, want := int64(snap.Sum("vs.gc_runs")), stats.VS.GCRuns; got != want {
		t.Errorf("sum(vs.gc_runs) = %d, Stats says %d", got, want)
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

	// Latency histograms must have one sample per operation.
	for op, n := range map[string]int64{"put": stats.Puts, "get": stats.Gets, "scan": stats.Scans} {
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
