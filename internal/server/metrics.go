package server

import (
	"io"
	"sync/atomic"

	"repro/internal/obs"
)

// serverMetrics holds the server.* instrumentation (see METRICS.md).
// Every handle is nil-safe, so a series the server does not register
// costs it nothing.
type serverMetrics struct {
	connsCur   atomic.Int64 // exported via gauge func
	connsTotal *obs.Counter
	rejected   *obs.Counter
	parseErrs  *obs.Counter
	bytesIn    *obs.Counter
	bytesOut   *obs.Counter
	// commands holds server.commands{verb}, indexed by command.slot: one
	// counter per table row, then unknownCommand's {verb=other}.
	commands  []*obs.Counter
	multiExec *obs.Counter
	virtLat   *obs.Histogram
	wallLat   *obs.Histogram

	// cmdLat is the per-class end-to-end command latency (submit or
	// dispatch through reply written); dispatchWait is the wall time
	// dispatch spends blocked on the store — slot-mutex acquisition for
	// locked verbs, completion-handle waits for async bursts.
	cmdLat       [numClasses]*obs.Histogram
	dispatchWait *obs.Histogram

	pipelineOps    *obs.Counter
	pipelineBursts *obs.Counter
	pipelineDepth  *obs.Histogram
}

// registerMetrics wires the server.* family into the store's registry.
// Registration panics on duplicates, which is why a Store admits at most
// one Server.
func (s *Server) registerMetrics(r *obs.Registry) {
	m := &s.m
	r.GaugeFunc(obs.Desc{Name: "server.connections", Help: "currently open client connections", Unit: "conns"},
		func() float64 { return float64(m.connsCur.Load()) })
	m.connsTotal = r.Counter(obs.Desc{Name: "server.connections_total", Help: "client connections accepted since start", Unit: "conns"})
	m.rejected = r.Counter(obs.Desc{Name: "server.connections_rejected", Help: "connections refused at the MaxConns limit", Unit: "conns"})
	m.parseErrs = r.Counter(obs.Desc{Name: "server.parse_errors", Help: "malformed RESP frames (each closes its connection)", Unit: "errors"})
	m.bytesIn = r.Counter(obs.Desc{Name: "server.bytes_in", Help: "bytes read from clients", Unit: "bytes"})
	m.bytesOut = r.Counter(obs.Desc{Name: "server.bytes_out", Help: "bytes written to clients", Unit: "bytes"})
	for _, c := range append(append([]*command(nil), commandList...), unknownCommand) {
		m.commands = append(m.commands, r.Counter(obs.Desc{Name: "server.commands", Help: "commands dispatched", Unit: "ops",
			Labels: map[string]string{"verb": c.name}}))
	}
	m.multiExec = r.Counter(obs.Desc{Name: "server.multi_exec", Help: "MULTI/EXEC blocks executed (queued commands batched on the pinned thread)", Unit: "txns"})
	m.virtLat = r.Histogram(obs.Desc{Name: "server.cmd_virtual_ns", Help: "store-command latency in virtual time (engine cost)", Unit: "ns"})
	m.wallLat = r.Histogram(obs.Desc{Name: "server.cmd_wall_ns", Help: "command latency in wall-clock time (host cost)", Unit: "ns"})
	for c, name := range classNames {
		m.cmdLat[c] = r.Histogram(obs.Desc{Name: "server.cmd_latency", Help: "end-to-end command latency by verb class (submit/dispatch to reply written), wall ns", Unit: "ns",
			Labels: map[string]string{"class": name}})
	}
	m.dispatchWait = r.Histogram(obs.Desc{Name: "server.dispatch_wait", Help: "wall time dispatch blocked on the store: slot-lock acquisition (locked verbs) or async-burst completion waits", Unit: "ns"})
	m.pipelineOps = r.Counter(obs.Desc{Name: "server.pipeline_ops", Help: "commands submitted through the async pipelined fast path", Unit: "ops"})
	m.pipelineBursts = r.Counter(obs.Desc{Name: "server.pipeline_bursts", Help: "pipelined bursts drained (replies written in protocol order)", Unit: "bursts"})
	m.pipelineDepth = r.Histogram(obs.Desc{Name: "server.pipeline_depth", Help: "pending completions per burst at drain", Unit: "ops"})
}

// countingReader / countingWriter meter the raw socket, beneath the
// protocol buffers, feeding server.bytes_in / server.bytes_out.
type countingReader struct {
	r io.Reader
	n *obs.Counter
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

type countingWriter struct {
	w io.Writer
	n *obs.Counter
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}
