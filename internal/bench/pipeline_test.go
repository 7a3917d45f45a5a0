package bench

import (
	"testing"

	"repro/internal/core"
)

// runPipelinedPut measures single-connection put throughput (ops per
// virtual second) at one pipeline depth: one thread bursts `depth`
// PutAsync submissions then drains, over and over — the bench harness's
// pipelined mode against the full Prism engine.
func runPipelinedPut(t *testing.T, depth int) float64 {
	t.Helper()
	// PWB sized to hold the run: the gate measures submission overlap,
	// not reclamation pressure (see PipelineDepth).
	p := RunConfig{Threads: 1, Records: 4000, ValueSize: 128,
		PrismMut: func(o *core.Options) { o.PWBBytesPerThread = 8 << 20 }}
	st, err := NewEngine(EnginePrism, p)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rc := RunConfig{Threads: 1, Records: 4000, ValueSize: 128, Pipeline: depth}
	r := Load(st, EnginePrism, rc)
	if r.Errors > 0 {
		t.Fatalf("depth %d: %d errors", depth, r.Errors)
	}
	if r.Ops != 4000 {
		t.Fatalf("depth %d: ran %d ops, want 4000", depth, r.Ops)
	}
	return r.KOpsPerSec() * 1e3
}

// TestPipelineDepthSpeedup is the async-pipeline acceptance gate: a
// depth-32 pipeline must lift single-connection virtual-time Put
// throughput at least 3x over depth 1. Depth-1 pays the full
// synchronous put latency per op; at depth 32 the admission loop
// coalesces each burst into a few windows (one epoch enter, one PWB
// publish per window) and overlaps the fixed NVM latencies on stage
// clocks, so only the shared-channel transfer residue stays serial —
// the measured curve saturates near 7x.
func TestPipelineDepthSpeedup(t *testing.T) {
	d1 := runPipelinedPut(t, 1)
	d32 := runPipelinedPut(t, 32)
	speedup := d32 / d1
	t.Logf("depth 1: %.0f ops/s, depth 32: %.0f ops/s, speedup %.2fx", d1, d32, speedup)
	if speedup < 3 {
		t.Fatalf("depth-32 pipeline speedup %.2fx, want >= 3x", speedup)
	}
}
