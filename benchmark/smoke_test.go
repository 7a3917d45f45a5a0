package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// shrink swaps the workloads for copies about 1/200 the size: a
// twentieth of the keys and warm-up, and a tenth of the measured time
// the caller then asks for. Store sizes shrink with the keys down to
// what the store accepts, so caches still miss and buffers still fill;
// the simulated SSDs stay large.
func shrink(t *testing.T) {
	t.Helper()
	saved := append([]workload(nil), workloads...)
	savedWire := wireOptions
	savedTraced, savedDir, savedScale, savedStall := tracedOpsPerClient, traceDir, ladderScale, stallLimit
	t.Cleanup(func() {
		copy(workloads, saved)
		wireOptions = savedWire
		tracedOpsPerClient, traceDir, ladderScale, stallLimit = savedTraced, savedDir, savedScale, savedStall
	})
	for i := range workloads {
		w := &workloads[i]
		w.keys /= 20
		w.warmOps /= 20
		w.opt.HSITCapacity = 1 << 13
		w.opt.PWBBytesPerThread = max(w.opt.PWBBytesPerThread/20, 128<<10)
		w.opt.SSDBytes = 64 * mib // a full device wedges Put; write-churn settles near 20 MiB here
		w.opt.SVCBytes = max(w.opt.SVCBytes/20, 64<<10)
	}
	tracedOpsPerClient = 300
	traceDir = t.TempDir()
	ladderScale = 100
}

// TestSmoke runs both passes of every workload at about 1/200 scale and
// checks that every metric the benchmark names comes out, finite and
// with its unit, that nothing failed, and that the traced pass wrote one
// span per request.
func TestSmoke(t *testing.T) {
	shrink(t)
	start := time.Now()
	for wi, w := range workloads {
		for _, pass := range []struct {
			name string
			run  func(int, uint64, float64) (result, error)
			defs []metricDef
		}{{"end-to-end", endToEndPass, endToEnd}, {"per-layer", layerPass, perLayer}} {
			r, err := pass.run(wi, 1, 0.12)
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, pass.name, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d", w.name, pass.name, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(pass.defs) {
				t.Errorf("%s %s: %d metrics, want %d", w.name, pass.name, len(r.Metrics), len(pass.defs))
			}
			for _, d := range pass.defs {
				v, ok := r.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s missing", w.name, d.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v", w.name, d.Name, v.Value)
				case v.Unit != d.Unit || v.Unit == "":
					t.Errorf("%s: %s has unit %q, want %q", w.name, d.Name, v.Unit, d.Unit)
				case d.Bound > 0 && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, v.Value)
				}
			}
			if _, err := json.Marshal(r); err != nil {
				t.Errorf("%s %s: result does not marshal: %v", w.name, pass.name, err)
			}
		}
		trace, err := os.ReadFile(filepath.Join(traceDir, "trace-"+w.name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(trace), []byte("\n"))
		ops := 0
		for i, line := range lines {
			var rec map[string]any
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("%s trace line %d: %v", w.name, i+1, err)
			}
			if name, _ := rec["name"].(string); name == "get" || name == "put" || name == "scan" {
				ops++
			}
		}
		// The pass itself checks spans against requests issued; here,
		// that they reached the file. The traced phase ends at its span
		// budget or its share of the time, whichever comes first.
		if ops < 1 || ops > clients*tracedOpsPerClient {
			t.Errorf("%s: %d request spans in the trace file, want 1..%d", w.name, ops, clients*tracedOpsPerClient)
		}
	}
	t.Logf("all workloads, both passes: %v", time.Since(start))
}

// TestSelectivity checks that each workload exercises what it claims
// to, and leaves alone what it claims to bypass.
func TestSelectivity(t *testing.T) {
	shrink(t)
	layers := map[string]map[string]value{}
	for wi, w := range workloads {
		r, err := layerPass(wi, 2, 0.3)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		layers[w.name] = r.Metrics
	}
	check := func(workload, metric string, ok func(float64) bool, want string) {
		t.Helper()
		if v := layers[workload][metric].Value; !ok(v) {
			t.Errorf("%s: %s = %v, want %s", workload, metric, v, want)
		}
	}
	zero := func(v float64) bool { return v == 0 }
	positive := func(v float64) bool { return v > 0 }
	check("read-hot", "svc.hit_rate", func(v float64) bool { return v >= 0.97 }, ">= 0.97")
	check("read-cold", "svc.hit_rate", func(v float64) bool { return v < 0.10 }, "< 0.10")
	check("write-churn", "pwb.reclaims_per_kop", positive, "> 0")
	check("write-churn", "core.read_svc_frac", zero, "0")
	check("write-churn", "tcq.batches_per_kop", zero, "0")
	check("repl-mixed", "shard.replica_writes_per_put", func(v float64) bool { return v == 2 }, "2")
	check("repl-mixed", "shard.scan_merges_per_scan", positive, "> 0")
	check("wire-pipelined", "server.pipelined_frac", positive, "> 0")
	check("wire-pipelined", "server.pipeline_depth_mean", func(v float64) bool { return v > 1 }, "> 1")
	for _, name := range []string{"read-hot", "read-cold"} {
		check(name, "core.put_stalls_per_kop", zero, "0")
		check(name, "ssd.write_ios_per_kop", zero, "0")
	}
	check("read-hot", "ssd.read_ios_per_op", func(v float64) bool { return v < 0.05 }, "< 0.05")
	check("read-cold", "ssd.read_ios_per_op", func(v float64) bool { return v > 0.8 }, "> 0.8")
	for _, w := range workloads {
		// GC is kept from starting everywhere; see roomySSD.
		check(w.name, "vs.gc_runs_per_kop", zero, "0")
		if w.opt.Replicas < 2 {
			check(w.name, "shard.replica_writes_per_put", zero, "0")
		}
		if !w.wire {
			check(w.name, "server.bytes_in_per_op", zero, "0")
			check(w.name, "server.cmd_read_mean_ns", zero, "0")
		}
	}
}

// TestBrokenCheckFails breaks the value check on purpose: every read
// must then count as failed and the result must say so, which is what
// makes the command exit non-zero.
func TestBrokenCheckFails(t *testing.T) {
	shrink(t)
	breakChecks = true
	defer func() { breakChecks = false }()
	_, err := endToEndPass(1, 1, 0.06)
	if err == nil || !strings.Contains(err.Error(), "failed during set-up") {
		t.Fatalf("read-hot with broken checks: err = %v, want a set-up failure", err)
	}
	// write-churn reads nothing until the read-back after recovery.
	r, err := endToEndPass(0, 1, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Failed == 0 {
		t.Errorf("write-churn with broken checks: correct=%v failed=%d", r.Correct, r.Failed)
	}
}

// TestWatchdog wedges the clients and expects the phase to be abandoned
// with what was in flight counted as failed.
func TestWatchdog(t *testing.T) {
	shrink(t)
	stallLimit = 60 * time.Millisecond
	e, err := open(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	err = e.each(func(c *client) { <-release }, 0, nil)
	if !errors.Is(err, errAbandoned) {
		t.Fatalf("each = %v, want errAbandoned", err)
	}
	var r result
	r, err = r.stopped(e, err)
	if err != nil || r.Correct || r.Failed != clients || r.Attempted < r.Failed {
		t.Errorf("abandoned run: %+v, err %v", r, err)
	}
	close(release)
	e.close()
}

func TestBenchmarkJSONMatches(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, describe()) {
		t.Error("BENCHMARK.json differs from `benchmark -describe`; regenerate it")
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", n)
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	for _, r := range append(append([]rung(nil), rungs...), benchRungs...) {
		l := r.build()
		if (l.virt != nil) != r.clock {
			t.Errorf("rung %s: clock=%v but virt set=%v", r.name, r.clock, l.virt != nil)
		}
		if l.close != nil {
			l.close()
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
	q1, med, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || med != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([5,1,3], n=4) == [1.0, 3.0, 5.0]
	if q1, med, q3 := quartiles([]float64{5, 1, 3}); q1 != 1 || med != 3 || q3 != 5 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1,2], n=4) == [0.75, 1.5, 2.25]
	if q1, med, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || med != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, kops, allocs []float64) string {
		rep := report{Workloads: []workloadReport{{Name: "read-hot", EndToEnd: map[string][]float64{
			"virt_kops": kops, "allocs_per_op": allocs,
		}}}}
		b, _ := json.Marshal(rep)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", []float64{100, 101, 99, 100}, []float64{2, 2, 2, 2})
	for _, c := range []struct {
		name          string
		kops, allocs  []float64
		worse         bool
		kopsV, allocV string
	}{
		{"same", []float64{100, 100, 101, 99}, []float64{2, 2, 2, 2}, false, "ok", "ok"},
		{"slower", []float64{70, 71, 70, 69}, []float64{2, 2, 2, 2}, true, "worse", "ok"},
		{"noisy", []float64{60, 100, 140, 100}, []float64{3, 3, 3, 3}, true, "unresolved", "worse"},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, base, write(c.name+".json", c.kops, c.allocs))
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse {
			t.Errorf("%s: worse = %v, want %v\n%s", c.name, worse, c.worse, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) < 2 {
				continue
			}
			switch f[1] {
			case "virt_kops":
				if f[len(f)-1] != c.kopsV {
					t.Errorf("%s: virt_kops verdict %q, want %q", c.name, f[len(f)-1], c.kopsV)
				}
			case "allocs_per_op":
				if f[len(f)-1] != c.allocV {
					t.Errorf("%s: allocs_per_op verdict %q, want %q", c.name, f[len(f)-1], c.allocV)
				}
			}
		}
	}
}
