package bench

import (
	"strconv"
	"testing"
)

// TestSmokeFig7 runs the paper's headline figure end to end on the store
// TestEveryEngineRunsEveryWorkload loads, for a quarter of its operations
// (the run's wall time is its YCSB-E scans on the LSM engines, which that
// test already pays for once): every engine x workload cell of the printed
// table is a positive throughput, and no operation failed. The 40-thread
// run is `make bench-smoke`'s (prism-bench -run fig7 -threads 40).
func TestSmokeFig7(t *testing.T) {
	tab, res := Fig7(RunConfig{Threads: 2, Records: 1500, Ops: 500})
	t.Log("\n" + tab.String())
	if len(tab.Rows) != 4 {
		t.Fatalf("Figure 7 has %d engine rows, want 4", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		for i, w := range stdWorkloads {
			if kops, err := strconv.ParseFloat(row[1+i], 64); err != nil || kops <= 0 {
				t.Errorf("%s %s: cell %q, want a throughput above 0", row[0], wname(w), row[1+i])
			}
			if r := res[row[0]][w]; r.Ops == 0 || r.Errors != 0 {
				t.Errorf("%s %s: %d ops, %d errors", row[0], wname(w), r.Ops, r.Errors)
			}
		}
	}
}
