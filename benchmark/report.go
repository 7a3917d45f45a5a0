package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"text/tabwriter"
)

// report is what -out writes and -compare reads: every value of every
// set, so that medians and spreads can be taken again later.
type report struct {
	Env       envBlock         `json:"env"`
	Workloads []workloadReport `json:"workloads"`
}

// envBlock says what was run where, so that two reports can be told
// apart, or told comparable, at a glance.
type envBlock struct {
	Commit     string          `json:"commit"`
	GoVersion  string          `json:"go_version"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	NumCPU     int             `json:"nproc"`
	Clients    int             `json:"clients"`
	Seed       uint64          `json:"seed"`
	Seconds    float64         `json:"seconds"`
	Sets       int             `json:"sets"`
	Loads      []workloadShape `json:"loads"`
}

type workloadShape struct {
	Name      string `json:"name"`
	Keys      int    `json:"keys"`
	DataBytes int64  `json:"data_bytes"`
	SVCBytes  int64  `json:"svc_bytes"`
	PWBBytes  int64  `json:"pwb_bytes"`
	SSDBytes  int64  `json:"ssd_bytes"`
	Shards    int    `json:"shards"`
	Replicas  int    `json:"replicas"`
	Wire      bool   `json:"wire"`
	Depth     int    `json:"depth"`
	WarmOps   int    `json:"warm_ops_per_client"`
}

type workloadReport struct {
	Name      string               `json:"name"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string][]float64 `json:"per_layer,omitempty"`
}

// commit is set by run.sh at link time.
var commit = "unknown"

func newEnvBlock(seed uint64, seconds float64, sets int) envBlock {
	env := envBlock{
		Commit: commit, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Clients: clients,
		Seed: seed, Seconds: seconds, Sets: sets,
	}
	for i := range workloads {
		w := &workloads[i]
		shards := max(w.opt.Shards, 1)
		env.Loads = append(env.Loads, workloadShape{
			Name: w.name, Keys: w.keys, DataBytes: w.dataBytes(),
			SVCBytes: int64(shards) * w.opt.SVCBytes,
			PWBBytes: int64(shards) * clients * int64(max(w.opt.PWBBytesPerThread, mib)),
			SSDBytes: w.ssdBytes(),
			Shards:   shards,
			Replicas: max(w.opt.Replicas, 1),
			Wire:     w.wire,
			Depth:    w.depth,
			WarmOps:  w.warmOps,
		})
	}
	return env
}

// runAll runs both passes of every workload, sets times, and prints
// every metric by name with its unit. ok is false if any request failed.
func runAll(out io.Writer, seed uint64, seconds float64, sets int, traced bool, outFile string) (ok bool, err error) {
	rep := report{Env: newEnvBlock(seed, seconds, sets)}
	envJSON, err := json.MarshalIndent(rep.Env, "", "  ")
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "env %s\n", envJSON)
	ok = true
	for wi := range workloads {
		wr := workloadReport{Name: workloads[wi].name, EndToEnd: map[string][]float64{}, PerLayer: map[string][]float64{}}
		samples := 0
		for set := 0; set < sets; set++ {
			type pass struct {
				run  func(int, uint64, float64) (result, error)
				into map[string][]float64
			}
			passes := []pass{{endToEndPass, wr.EndToEnd}}
			if traced {
				passes = append(passes, pass{layerPass, wr.PerLayer})
			}
			for _, p := range passes {
				r, err := p.run(wi, seed+uint64(set), seconds)
				if err != nil {
					return false, fmt.Errorf("%s: %w", wr.Name, err)
				}
				wr.Attempted += r.Attempted
				wr.Failed += r.Failed
				for name, v := range r.Metrics {
					p.into[name] = append(p.into[name], v.Value)
				}
				samples = max(samples, r.samples)
				if set == 0 {
					fmt.Fprint(out, r.attribution)
				}
			}
		}
		printWorkload(out, &wr, sets, samples)
		ok = ok && wr.Failed == 0
		rep.Workloads = append(rep.Workloads, wr)
	}
	if outFile != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(outFile, append(b, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// quartiles returns the first quartile, the median and the third
// quartile of v exactly as Python's statistics.quantiles(v, n=4) does
// (its default "exclusive" method), so that spreads computed here and by
// whoever checks the benchmark agree.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(len(s)+1)/4, 1), len(s)-1)
		delta := i*(len(s)+1) - j*4 // taken after the clamp, so the ends extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the quartiles as a share of the
// median; it needs at least two values.
func spread(v []float64) (float64, bool) {
	if len(v) < 2 {
		return 0, false
	}
	q1, med, q3 := quartiles(v)
	return div(q3-q1, med), true
}

func printWorkload(out io.Writer, wr *workloadReport, sets, samples int) {
	fmt.Fprintf(out, "\n== %s: %d requests, %d failed (failed_frac %g)", wr.Name, wr.Attempted, wr.Failed,
		div(float64(wr.Failed), float64(wr.Attempted)))
	if samples > 0 {
		fmt.Fprintf(out, "; wall percentiles from %d samples", samples)
	}
	fmt.Fprintln(out)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	head := "metric\tmedian\tunit\tbetter\tbound\t"
	if sets > 1 {
		head += "q1\tq3\tspread\t"
	}
	fmt.Fprintln(tw, head)
	row := func(d metricDef, v []float64) {
		if len(v) == 0 {
			return
		}
		q1, med, q3 := quartiles(v)
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("%g", d.Bound)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%s\t", d.Name, med, d.Unit, d.Better, bound)
		if sp, ok := spread(v); ok {
			fmt.Fprintf(tw, "%.6g\t%.6g\t%.1f%%\t", q1, q3, 100*sp)
		}
		fmt.Fprintln(tw)
	}
	for _, d := range endToEnd {
		row(d, wr.EndToEnd[d.Name])
	}
	for _, d := range perLayer {
		row(d, wr.PerLayer[d.Name])
	}
	tw.Flush()
}

// compareFiles prints one row per workload and end-to-end metric of two
// reports: both medians, their ratio with its base, the bound, and a
// verdict. "unresolved" means the runs of one side spread wider than
// the bound, so nothing can be said. It reports whether any row is
// worse.
func compareFiles(out io.Writer, basePath, newPath string) (anyWorse bool, err error) {
	var base, cur report
	for _, f := range []struct {
		path string
		into *report
	}{{basePath, &base}, {newPath, &cur}} {
		b, err := os.ReadFile(f.path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(b, f.into); err != nil {
			return false, fmt.Errorf("%s: %w", f.path, err)
		}
	}
	fmt.Fprintf(out, "base %s: commit %s, %s, %d cores, %d sets of %gs, seed %d\n", basePath,
		base.Env.Commit, base.Env.GoVersion, base.Env.NumCPU, base.Env.Sets, base.Env.Seconds, base.Env.Seed)
	fmt.Fprintf(out, "new  %s: commit %s, %s, %d cores, %d sets of %gs, seed %d\n", newPath,
		cur.Env.Commit, cur.Env.GoVersion, cur.Env.NumCPU, cur.Env.Sets, cur.Env.Seconds, cur.Env.Seed)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tnew/base\tbetter\tbound\tspread\tverdict\t")
	for _, bw := range base.Workloads {
		i := slices.IndexFunc(cur.Workloads, func(w workloadReport) bool { return w.Name == bw.Name })
		if i < 0 {
			fmt.Fprintf(tw, "%s\t(not in new)\t\n", bw.Name)
			continue
		}
		cw := cur.Workloads[i]
		if cw.Failed > bw.Failed {
			fmt.Fprintf(tw, "%s\tfailed\t%d\t%d\t\t\t0\t\tworse\t\n", bw.Name, bw.Failed, cw.Failed)
			anyWorse = true
		}
		for _, d := range endToEnd {
			bv, cv := bw.EndToEnd[d.Name], cw.EndToEnd[d.Name]
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			bm, cm := median(bv), median(cv)
			verdict, sp := "ok", ""
			if d.worse(bm, cm) {
				verdict = "worse"
			}
			sb, okb := spread(bv)
			sc, okc := spread(cv)
			if okb || okc {
				s := max(sb, sc)
				sp = fmt.Sprintf("%.1f%%", 100*s)
				if s > d.Bound {
					verdict = "unresolved"
				}
			}
			anyWorse = anyWorse || verdict == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.3f (base %.6g %s)\t%s\t%g\t%s\t%s\t\n",
				bw.Name, d.Name, bm, cm, div(cm, bm), bm, d.Unit, d.Better, d.Bound, sp, verdict)
		}
	}
	return anyWorse, tw.Flush()
}
