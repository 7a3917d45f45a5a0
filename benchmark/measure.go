package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"
)

// rounds is how many times the end-to-end pass opens, loads, warms,
// measures, crashes and recovers a store. Every metric is the median of
// the rounds, so one disturbed stretch of a shared machine moves none of
// them. The measured phases add up to -seconds.
const rounds = 3

// wallSlices is how many stretches the per-layer pass cuts its untraced
// phase into; wall_kops and cpu_us_per_op are the median stretch.
const wallSlices = 12

// tracedOpsPerClient bounds the traced pass, and with it the trace file.
// traceDir is where the trace files go.
var (
	tracedOpsPerClient = 50_000
	traceDir           = "benchmark/out"
)

// result is one workload's outcome: the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	samples     int    // wall latency samples behind the per-layer pass's percentiles
	attribution string // the per-layer pass's attribution tables
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(defs []metricDef, vals map[string]float64) {
	r.Metrics = make(map[string]value, len(defs))
	for _, d := range defs {
		r.Metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
}

// count adds e's requests to r.
func (r *result) count(e *env) {
	r.Attempted += e.opsDone()
	r.Failed += e.failed()
}

// stopped is the outcome of a run that ended at err on e. An abandoned
// workload still has counts to report, with whatever its clients had in
// flight failed; its clients may be stuck inside the store, so nothing
// here reads what they own or closes it. Any other error is the
// caller's to report, and the store is closed.
func (r *result) stopped(e *env, err error) (result, error) {
	if e == nil {
		return *r, err
	}
	if !errors.Is(err, errAbandoned) {
		e.close()
		return *r, err
	}
	inFlight := int64(clients * max(e.w.depth, 1))
	for _, c := range e.cl {
		r.Attempted += c.progress.Load()
	}
	r.Attempted += inFlight
	r.Failed += e.failed() + inFlight
	r.Metrics = map[string]value{}
	return *r, nil
}

func median(v []float64) float64 {
	v = slices.Clone(v)
	slices.Sort(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// endToEndPass measures what a user of the store sees, with tracing off.
func endToEndPass(wi int, seed uint64, seconds float64) (result, error) {
	phaseLen := time.Duration(seconds / rounds * float64(time.Second))

	var r result
	per := map[string][]float64{} // metric -> one value per round
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	for round := 0; round < rounds; round++ {
		t0 := time.Now()
		e, err := open(wi, seed)
		if err != nil {
			return r.stopped(e, err)
		}
		add("setup_s", time.Since(t0).Seconds())

		runtime.GC()
		m, err := e.run(&phase{deadline: int64(phaseLen)})
		if err != nil {
			return r.stopped(e, err)
		}
		device, user := e.store.WriteAmp()
		if _, err := e.recoverAndVerify(); err != nil {
			return r.stopped(e, err)
		}
		n := float64(m.ops)
		add("virt_kops", n/float64(m.virtNS)*1e6)
		add("allocs_per_op", float64(m.mallocs)/n)
		add("bytes_per_op", float64(m.allocBytes)/n)
		add("write_amp", float64(device)/float64(user))
		r.count(e)
		e.close()
		// The closed store is hundreds of MiB of garbage; collect it
		// outside the next round's timed set-up.
		runtime.GC()
	}
	vals := map[string]float64{}
	for name, v := range per {
		vals[name] = median(v)
	}
	r.set(endToEnd, vals)
	r.Correct = r.Failed == 0
	return r, nil
}

// wallMetrics adds what the untraced phase p looked like on the wall
// clock: throughput and CPU per request as the median stretch, latency
// from every sample.
func wallMetrics(vals map[string]float64, p *phase, m measured) {
	var kops, cpu []float64
	for _, s := range m.slices {
		// The last stretch ends when the clients do; keep it only if it
		// is long enough to mean something.
		if s.wallNS >= int64(p.slice)/2 && s.ops > 0 {
			kops = append(kops, float64(s.ops)/float64(s.wallNS)*1e6)
			cpu = append(cpu, float64(s.cpuNS)/1e3/float64(s.ops))
		}
	}
	if len(kops) > 0 {
		vals["wall_kops"], vals["cpu_us_per_op"] = median(kops), median(cpu)
	}
	var all []uint32
	for i := range p.lat {
		all = append(all, p.lat[i][:p.nlat[i]]...)
	}
	slices.Sort(all)
	vals["wall_p50_us"], vals["wall_p99_us"] = quantile(all, 0.50)/1e3, quantile(all, 0.99)/1e3
}

// layerPass measures the layers from outside: counter deltas around an
// untraced phase, one span per request of a traced phase, and the
// ladder of standalone calls.
func layerPass(wi int, seed uint64, seconds float64) (result, error) {
	w := &workloads[wi]
	var r result
	e, err := open(wi, seed)
	if err != nil {
		return r.stopped(e, err)
	}
	// Both phases of a pipelined workload settle in windows, so that the
	// traced one has a span to hang its requests on and the two differ
	// only by the tracing.
	window := 0
	if w.wire && w.depth > 1 {
		window = 4 * w.depth
	}
	// Wall latency samples land in arrays made, and touched, before the
	// clock starts. A phase that outgrows them keeps the samples it has.
	// The two phases run on one store, which on the skewed workloads
	// only ever gains garbage (see roomySSD): together they stay at half
	// of -seconds.
	plainLen := time.Duration(seconds * 3 / 8 * float64(time.Second))
	lat := make([][]uint32, clients)
	for i := range lat {
		lat[i] = make([]uint32, int(plainLen.Seconds()*1e6))
		for j := 0; j < len(lat[i]); j += 1024 {
			lat[i][j] = 1
		}
	}
	runtime.GC()
	before := snap{e.store.Metrics()}
	p := &phase{deadline: int64(plainLen), window: window, lat: lat, nlat: make([]int, clients), slice: plainLen / wallSlices}
	plain, err := e.run(p)
	if err != nil {
		return r.stopped(e, err)
	}
	end := snap{e.store.Metrics()}
	vals := counterMetrics(w, snap{end.Delta(before.Snapshot)}, end, plain.ops)
	wallMetrics(vals, p, plain)
	for i := range lat {
		r.samples += p.nlat[i]
	}

	ops := tracedOpsPerClient
	slabs := make([]*slab, clients)
	for i := range slabs {
		slabs[i] = newSlab(ops, window)
	}
	before = snap{e.store.Metrics()}
	traced, err := e.run(&phase{deadline: int64(seconds / 8 * 1e9), maxOps: ops, window: window, slabs: slabs})
	if err != nil {
		return r.stopped(e, err)
	}
	delta := snap{e.store.Metrics()}.Delta(before.Snapshot)
	if n := int64(opSpans(slabs)); n != traced.ops {
		return r.stopped(e, fmt.Errorf("%s: %d spans for %d requests", w.name, n, traced.ops))
	}
	if err := writeTrace(traceDir, w, slabs, delta); err != nil {
		return r.stopped(e, fmt.Errorf("write trace: %w", err))
	}
	var stats [numKinds]spanStats
	for k := opGet; k < numKinds; k++ {
		st := statsOf(slabs, k)
		stats[k] = st
		p := "op." + kindName[k] + "."
		vals[p+"wall_p50_ns"], vals[p+"wall_p99_ns"] = st.wallP50, st.wallP99
		vals[p+"virt_p50_ns"], vals[p+"virt_p99_ns"] = st.virtP50, st.virtP99
	}
	vals["bench.trace_overhead_frac"] = 1 - (float64(traced.ops)/float64(traced.wallNS))/(float64(plain.ops)/float64(plain.wallNS))

	rep, err := e.recoverAndVerify()
	if err != nil {
		return r.stopped(e, err)
	}
	vals["core.recovery_virt_ms"] = float64(rep.VirtualNS) / 1e6
	r.count(e)
	e.close()
	for name, v := range ladder() {
		vals[name] = v
	}
	r.set(perLayer, vals)
	r.Correct = r.Failed == 0
	r.attribution = attribution(w, stats, vals)
	return r, nil
}
