package bench

import (
	"fmt"

	"repro/internal/devices"
	"repro/internal/ssd"
)

// Fig1 validates the device models against the paper's Figure 1: for
// each storage profile it microbenchmarks the simulated device — small
// random-read latency and large sequential read/write bandwidth — and
// prints the measured values next to the specification. Every row should
// match its spec; this is the calibration anchor for every other
// experiment.
func Fig1(rc RunConfig) Table {
	t := Table{
		Title: "Figure 1: heterogeneous storage media (simulated vs spec)",
		Header: []string{"type", "model",
			"readBW GB/s", "writeBW GB/s", "readLat us", "writeLat us", "$/TB"},
	}
	for _, p := range devices.All {
		cfg := p.SSDConfig()
		cfg.Size = 256 << 20
		dev := ssd.New(cfg)

		// Small random read latency.
		c := dev.Submit(0, []ssd.Request{{Op: ssd.OpRead, Offset: 0, Data: make([]byte, 512)}})
		readLat := c[0].DoneTime

		// Small random write latency.
		cw := dev.Submit(0, []ssd.Request{{Op: ssd.OpWrite, Offset: 1 << 20, Data: make([]byte, 512)}})
		dev.Ack(cw[0])
		writeLat := cw[0].DoneTime

		// Sequential bandwidth, 64 MB in 1 MB requests.
		const total = 64 << 20
		var rreqs, wreqs []ssd.Request
		for off := int64(0); off < total; off += 1 << 20 {
			rreqs = append(rreqs, ssd.Request{Op: ssd.OpRead, Offset: off, Data: make([]byte, 1<<20)})
			wreqs = append(wreqs, ssd.Request{Op: ssd.OpWrite, Offset: total + off, Data: make([]byte, 1<<20)})
		}
		rc := dev.Submit(0, rreqs)
		readBW := float64(total) / (float64(rc[len(rc)-1].DoneTime) / 1e9)
		wc := dev.Submit(0, wreqs)
		for _, comp := range wc {
			dev.Ack(comp)
		}
		writeBW := float64(total) / (float64(wc[len(wc)-1].DoneTime) / 1e9)

		t.Rows = append(t.Rows, []string{
			p.Type, p.Model,
			fmt.Sprintf("%.1f (%.1f)", readBW/1e9, float64(p.ReadBW)/1e9),
			fmt.Sprintf("%.1f (%.1f)", writeBW/1e9, float64(p.WriteBW)/1e9),
			fmt.Sprintf("%.1f (%.1f)", float64(readLat)/1e3, float64(p.ReadLatency)/1e3),
			fmt.Sprintf("%.1f (%.1f)", float64(writeLat)/1e3, float64(p.WriteLatency)/1e3),
			fmt.Sprintf("%d", p.DollarsPerTB),
		})
	}
	t.Notes = append(t.Notes, "cells are measured (spec); latency includes one transfer")
	return t
}
