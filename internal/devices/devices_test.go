package devices

import (
	"testing"

	"repro/internal/ssd"
)

// The device models must reproduce Figure 1's measured characteristics:
// per-profile latency for small random IO and bandwidth for large
// sequential IO.
func TestProfilesReproduceFigure1(t *testing.T) {
	for _, p := range All {
		p := p
		t.Run(p.Model, func(t *testing.T) {
			cfg := p.SSDConfig()
			cfg.Size = 64 << 20
			dev := ssd.New(cfg)

			// Small random read: completion ~= latency.
			c := dev.Submit(0, []ssd.Request{{Op: ssd.OpRead, Offset: 0, Data: make([]byte, 512)}})
			got := c[0].DoneTime
			if got < p.ReadLatency || got > p.ReadLatency*2 {
				t.Fatalf("512B read = %dns, profile latency %dns", got, p.ReadLatency)
			}

			// Large sequential read: throughput ~= bandwidth.
			const total = 32 << 20
			var reqs []ssd.Request
			for off := int64(0); off < total; off += 1 << 20 {
				reqs = append(reqs, ssd.Request{Op: ssd.OpRead, Offset: off, Data: make([]byte, 1<<20)})
			}
			comps := dev.Submit(0, reqs)
			last := comps[len(comps)-1].DoneTime
			bw := float64(total) / (float64(last) / 1e9)
			if bw < float64(p.ReadBW)*0.8 || bw > float64(p.ReadBW)*1.2 {
				t.Fatalf("sequential read bandwidth %.2f GB/s, profile %.2f GB/s",
					bw/1e9, float64(p.ReadBW)/1e9)
			}
		})
	}
}

func TestCostModel(t *testing.T) {
	// Table 1's Prism configuration: 20 GB DRAM + 16 GB NVM = ~$170.
	cost := DRAM.costDollars(20<<30) + OptaneDCPMM.costDollars(16<<30)
	if cost < 150 || cost > 200 {
		t.Fatalf("Table 1 Prism cost = $%.0f, paper says ~$170", cost)
	}
	// KVell: 32 GB DRAM = ~$170 too (cost parity).
	kvell := DRAM.costDollars(32 << 30)
	if kvell < 150 || kvell > 200 {
		t.Fatalf("Table 1 KVell cost = $%.0f", kvell)
	}
}

func TestOrderingMatchesInsight1(t *testing.T) {
	// §2.1's Insight #1: flash has the highest bandwidth at the lowest
	// cost; NVM has the lowest durable latency.
	if !(Samsung980Pro.ReadBW > OptaneDCPMM.ReadBW) {
		t.Fatal("flash should out-bandwidth NVM")
	}
	if !(Samsung980Pro.DollarsPerTB < OptaneDCPMM.DollarsPerTB/20) {
		t.Fatal("flash should be >20x cheaper than NVM")
	}
	if !(OptaneDCPMM.ReadLatency < Samsung980Pro.ReadLatency/100) {
		t.Fatal("NVM should be >100x lower latency than flash")
	}
}
