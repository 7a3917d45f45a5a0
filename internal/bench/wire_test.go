package bench

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/ycsb"
)

// wirePoint runs one wire YCSB-A phase at the given connection count on
// a fresh loaded store and returns virtual-time Kops/sec plus the raw
// client-side result.
func wirePoint(t *testing.T, rc RunConfig, conns, depth int) (float64, WireResult) {
	t.Helper()
	st, err := NewEngine(EnginePrism, RunConfig{Threads: rc.Threads, Records: rc.Records, ValueSize: rc.ValueSize})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ps := st.(*engine.PrismStore)
	addr, stop := wireServer(ps.S)
	defer stop()
	Load(st, EnginePrism, rc)

	marks := wireClockMarks(ps.S)
	res, err := RunWire(addr, ycsb.WorkloadA, rc, conns, depth)
	if err != nil {
		t.Fatalf("RunWire conns=%d: %v", conns, err)
	}
	span := wireMakespan(marks, wireClockMarks(ps.S))
	if span <= 0 {
		t.Fatalf("conns=%d: no virtual time elapsed in wire phase", conns)
	}
	return float64(res.Ops) / (float64(span) / 1e9) / 1e3, res
}

// TestWireThroughputScales is the wire-path acceptance gate (ISSUE 10):
// virtual-time throughput over the RESP server must scale with
// connection count, which only holds when connections dispatch without
// convoying on a shared slot lock. The 1.5x floor at 8 connections is
// deliberately loose (measured ~4-7x); a regression to serialized
// dispatch flattens the curve to ~1x and fails clearly.
func TestWireThroughputScales(t *testing.T) {
	rc := RunConfig{Threads: 4, Records: 2000, Ops: 6000, ValueSize: 256}
	const depth = 16

	k1, r1 := wirePoint(t, rc, 1, depth)
	k8, r8 := wirePoint(t, rc, 8, depth)
	t.Logf("1 conn: %.1f Kops (%d ops), 8 conns: %.1f Kops (%d ops), speedup %.2fx",
		k1, r1.Ops, k8, r8.Ops, k8/k1)

	for _, r := range []struct {
		conns int
		res   WireResult
	}{{1, r1}, {8, r8}} {
		wantOps := int64(rc.Ops / r.conns * r.conns)
		if r.res.Ops != wantOps {
			t.Errorf("conns=%d: %d ops acknowledged, want %d", r.conns, r.res.Ops, wantOps)
		}
		if r.res.Errors != 0 {
			t.Errorf("conns=%d: %d RESP error replies, want 0", r.conns, r.res.Errors)
		}
	}
	if k1 <= 0 || k8 < 1.5*k1 {
		t.Errorf("wire throughput at 8 conns = %.1f Kops vs %.1f at 1 conn; want >= 1.5x", k8, k1)
	}
}

// TestWireLoadPhase checks wire-mode correctness for the LOAD workload:
// the shared insert counter spans connections, so every key 1..Records
// is inserted exactly once and the store ends at exactly Records keys.
func TestWireLoadPhase(t *testing.T) {
	rc := RunConfig{Threads: 4, Records: 1500, Ops: 1500, ValueSize: 128}
	st, err := NewEngine(EnginePrism, RunConfig{Threads: rc.Threads, Records: rc.Records, ValueSize: rc.ValueSize})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ps := st.(*engine.PrismStore)
	addr, stop := wireServer(ps.S)
	defer stop()

	res, err := RunWire(addr, ycsb.Load, rc, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("%d RESP error replies during load, want 0", res.Errors)
	}
	if got := ps.S.Len(); got != rc.Records {
		t.Errorf("store has %d keys after wire load, want %d", got, rc.Records)
	}
}
