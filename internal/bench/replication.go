package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ycsb"
)

// Replication measures the replica fan-out: a 3-shard Prism at replica
// factors 1..3 runs LOAD and YCSB-A, reporting throughput and the
// overhead versus the unreplicated baseline (R=1 must be bit-for-bit the
// plain router, so its overhead row is exactly 0%). For R > 1 the run
// then crashes one replica mid write-burst, keeps serving, recovers it,
// and reports how many anti-entropy passes convergence took — the same
// sequence the CI fault-injection gate asserts on.
func Replication(rc RunConfig) Table {
	rc.applyDefaults()
	t := Table{
		Title:  "Replication: 3-shard throughput and repair convergence vs replica factor",
		Header: []string{"replicas", "LOAD Kops/sec", "YCSB-A Kops/sec", "A overhead vs R=1", "repair passes"},
		Notes: []string{
			"R-way placement on the jump ring: primary + R-1 successors, LWW stamps",
			"overhead = 1 - KOps(R)/KOps(1) on YCSB-A (reads primary-only, writes fan out)",
			"repair passes: crash 1 replica mid-burst, recover, pull passes until converged",
		},
	}
	ws := []ycsb.Workload{ycsb.Load, ycsb.WorkloadA}
	rc.Shards, rc.Placement, rc.SplitKeys = 3, "", nil // the experiment owns the router
	// The experiment drives repair passes by hand so the pass count is
	// deterministic and reportable.
	rc.PrismMut = func(o *core.Options) { o.DisableAutoRepair = true }
	var baseA float64
	for _, rc.Replicas = range []int{1, 2, 3} {
		passes := "-"
		res := cell(EnginePrism, rc, fmt.Sprintf("replication-r%d", rc.Replicas), ws, func(st engine.Store) {
			if rc.Replicas > 1 {
				passes = fmt.Sprintf("%d", replicationFaultDrill(st.(*engine.PrismStore), rc))
			}
		})
		overhead := "0.0%"
		ka := res[ycsb.WorkloadA].KOpsPerSec()
		if rc.Replicas == 1 {
			baseA = ka
		} else if baseA > 0 {
			overhead = fmt.Sprintf("%.1f%%", (1-ka/baseA)*100)
		}
		t.Rows = append(t.Rows, append(kopsRow(fmt.Sprintf("%d", rc.Replicas), res, ws), overhead, passes))
	}
	return t
}

// replicationFaultDrill is the crash/recover/repair sequence of the
// fault-injection gate, run against an already-loaded store: crash shard
// 1, write a burst around it, recover, then count pull passes until a
// pass applies nothing. Returns the pass count (bounded by the router's
// own repair-pass cap).
func replicationFaultDrill(ps *engine.PrismStore, rc RunConfig) int {
	s := ps.S
	th := s.Thread(0)
	const victim = 1
	s.CrashShard(victim)
	val := make([]byte, rc.ValueSize)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("drill%012d", i)
		if err := th.Put([]byte(key), val); err != nil {
			panic(fmt.Sprintf("bench: drill write with replica down: %v", err))
		}
	}
	if _, err := s.RecoverShard(victim); err != nil {
		panic(fmt.Sprintf("bench: drill recover: %v", err))
	}
	passes := 0
	for st := s.RepairShard(victim); st.Applied() != 0; st = s.RepairShard(victim) {
		passes++
		if passes > 32 {
			break
		}
	}
	return passes + 1 // count the final empty (converging) pass
}
