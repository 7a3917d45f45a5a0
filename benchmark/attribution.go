package main

import (
	"fmt"
	"strings"
	"text/tabwriter"
)

// term is one layer's share of a request in the attribution model: how
// often the request calls the rung, as the counters say.
type term struct {
	rung  string
	calls float64
}

// model lists the ladder calls one request of kind makes on workload w.
// v holds the counter metrics of the same workload. It is deliberately
// rough — built from outside, from what the counters reveal — and what
// it leaves uncovered is the work list for tracing inside the program.
func model(w *workload, kind opKind, v map[string]float64) []term {
	svcFrac, pwbFrac, vsFrac := v["core.read_svc_frac"], v["core.read_pwb_frac"], v["core.read_vs_frac"]
	// resolve is what it takes to turn one HSIT index into a value.
	resolve := func(n float64) []term {
		return []term{
			{"hsit.load", n},
			{"svc.lookup", n * svcFrac},
			{"pwb.read_value", n * pwbFrac},
			{"tcq.read", n * vsFrac},
			{"svc.admit", n * vsFrac},
		}
	}
	var t []term
	if w.wire {
		t = append(t, term{"server.ping_rtt", 1}) // socket, parse, reply
	}
	switch kind {
	case opPut:
		copies := max(v["shard.replica_writes_per_put"], 1)
		t = append(t,
			term{"epoch.enter_exit", copies},
			term{"keyindex.lookup", copies},
			term{"pwb.append", copies},
			term{"hsit.publish", copies},
			term{"obs.histogram_record", copies},
			term{"obs.counter_add", 2 * copies})
	case opGet:
		tries := 1 + v["shard.read_fallback_frac"]
		t = append(t,
			term{"epoch.enter_exit", tries},
			term{"keyindex.lookup", tries},
			term{"obs.histogram_record", 1},
			term{"obs.counter_add", 2})
		t = append(t, resolve(1)...)
	case opScan:
		rows := float64(w.mix.maxScan+1) / 2
		shards := float64(max(w.opt.Shards, 1))
		t = append(t,
			term{"epoch.enter_exit", shards},
			term{"keyindex.scan50", shards * rows / 50},
			term{"obs.histogram_record", shards})
		t = append(t, resolve(rows)...)
	}
	return t
}

// attribution tabulates, per kind of request, the traced spans' mean time
// beside what the model accounts for: each rung's ladder cost times its
// calls per request, their sum, and the remainder nothing covers.
func attribution(w *workload, stats [numKinds]spanStats, v map[string]float64) string {
	var out strings.Builder
	fmt.Fprintf(&out, "\nattribution %s: mean span time against ladder cost x calls per request\n", w.name)
	tw := tabwriter.NewWriter(&out, 0, 0, 2, ' ', tabwriter.AlignRight)
	for kind, st := range stats {
		if st.n == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s (%d spans)\tcalls/req\twall ns\tvirt ns\t\n", kindName[kind], st.n)
		var wall, virt float64
		for _, t := range model(w, opKind(kind), v) {
			if t.calls == 0 {
				continue
			}
			tw1, tv1 := t.calls*v[t.rung+".wall_ns"], t.calls*v[t.rung+".virt_ns"]
			wall, virt = wall+tw1, virt+tv1
			fmt.Fprintf(tw, "%s\t%.3f\t%.0f\t%.0f\t\n", t.rung, t.calls, tw1, tv1)
		}
		fmt.Fprintf(tw, "covered\t\t%.0f\t%.0f\t\n", wall, virt)
		fmt.Fprintf(tw, "span mean\t\t%.0f\t%.0f\t\n", st.wallMean, st.virtMean)
		uncovered := func(span, covered float64) string {
			if span == 0 {
				return "-" // wire workloads: no simulated time on the client's side
			}
			return fmt.Sprintf("%.0f (%.0f%%)", span-covered, 100*(span-covered)/span)
		}
		fmt.Fprintf(tw, "uncovered\t\t%s\t%s\t\n", uncovered(st.wallMean, wall), uncovered(st.virtMean, virt))
	}
	tw.Flush()
	return out.String()
}
