package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/obs"
)

// Spans are recorded from the benchmark's side of the public calls, one
// per call, into slabs sized before the phase starts: recording a span
// allocates nothing, and nothing is written until the phase has ended.

const kindWindow opKind = numKinds

// phaseSpan is the slab index of the span covering the client's whole
// phase; it is the parent of every span that has no window around it.
const phaseSpan int32 = 0

type span struct {
	kind               opKind
	ok                 bool
	parent             int32 // slab index
	wallStart, wallEnd int64 // ns since the env was opened
	virtStart, virtEnd int64 // simulated ns; 0 on wire workloads
}

type slab struct{ spans []span }

// newSlab sizes a slab for ops requests with a window span every window
// requests (0 = none), plus the phase span.
func newSlab(ops, window int) *slab {
	n := ops + 1
	if window > 0 {
		n += ops/window + 1
	}
	s := &slab{spans: make([]span, 0, n)}
	s.spans = append(s.spans, span{kind: kindWindow, ok: true, parent: -1})
	return s
}

// add records sp and returns its index. The slab is sized for the phase,
// so running out is a bug in the caller's arithmetic.
func (s *slab) add(sp span) int32 {
	if len(s.spans) == cap(s.spans) {
		panic("trace slab overflow")
	}
	s.spans = append(s.spans, sp)
	return int32(len(s.spans) - 1)
}

// opSpans counts the spans that stand for requests.
func opSpans(slabs []*slab) (n int) {
	for _, s := range slabs {
		for i := range s.spans {
			if s.spans[i].kind < numKinds {
				n++
			}
		}
	}
	return n
}

// spanStats is the latency of one kind of request over a traced phase.
type spanStats struct {
	n                          int
	wallP50, wallP99, wallMean float64
	virtP50, virtP99, virtMean float64
}

func statsOf(slabs []*slab, kind opKind) spanStats {
	var wall, virt []int64
	for _, s := range slabs {
		for i := range s.spans {
			if sp := &s.spans[i]; sp.kind == kind {
				wall = append(wall, sp.wallEnd-sp.wallStart)
				virt = append(virt, sp.virtEnd-sp.virtStart)
			}
		}
	}
	st := spanStats{n: len(wall)}
	if st.n == 0 {
		return st
	}
	slices.Sort(wall)
	slices.Sort(virt)
	st.wallP50, st.wallP99, st.wallMean = quantile(wall, 0.50), quantile(wall, 0.99), mean(wall)
	st.virtP50, st.virtP99, st.virtMean = quantile(virt, 0.50), quantile(virt, 0.99), mean(virt)
	return st
}

// quantile interpolates between the two nearest ranks of sorted.
func quantile[T int64 | uint32](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(i)
	return float64(sorted[i])*(1-frac) + float64(sorted[i+1])*frac
}

func mean(v []int64) float64 {
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s / float64(len(v))
}

// writeTrace writes one JSON object per line to
// <dir>/trace-<workload>.jsonl: first the phase's metrics delta, then
// every span. Span ids are unique across clients; parent names the span
// that caused this one.
func writeTrace(dir string, w *workload, slabs []*slab, delta obs.Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+w.name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	dj, err := json.Marshal(struct {
		Workload     string       `json:"workload"`
		MetricsDelta []obs.Metric `json:"metrics_delta"`
	}{w.name, delta.Metrics})
	if err != nil {
		f.Close()
		return err
	}
	bw.Write(dj)
	bw.WriteByte('\n')
	var line []byte
	for ci, s := range slabs {
		base := int64(ci) << 32
		for i := range s.spans {
			sp := &s.spans[i]
			name := "phase"
			switch {
			case sp.kind < numKinds:
				name = kindName[sp.kind]
			case i != int(phaseSpan):
				name = "window"
			}
			parent := int64(0) // the phase span has none
			if sp.parent >= 0 {
				parent = base + int64(sp.parent) + 1
			}
			line = fmt.Appendf(line[:0], `{"id":%d,"parent":%d,"name":%q,"workload":%q,"client":%d,`+
				`"wall_start_ns":%d,"wall_end_ns":%d,"virt_start_ns":%d,"virt_end_ns":%d,"ok":%t}`+"\n",
				base+int64(i)+1, parent, name, w.name, ci,
				sp.wallStart, sp.wallEnd, sp.virtStart, sp.virtEnd, sp.ok)
			bw.Write(line)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
