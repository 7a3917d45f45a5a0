// Package devices provides the performance profiles of the paper's
// Figure 1 — the heterogeneous storage media whose overlapping
// capabilities motivate Prism — as ready-to-use configurations for the
// simulated devices.
//
// Profiles are also the vehicle for the §8 discussion: swapping a
// profile into core.Options.SSDConfigs explores how Prism behaves over emerging
// media (PCIe 5 flash, ultra-low-latency NVM SSDs) without touching any
// engine code.
package devices

import "repro/internal/ssd"

// Profile describes one Figure 1 row.
type Profile struct {
	Type  string
	Model string
	// Performance (Figure 1 columns).
	ReadBW       int64 // bytes/second
	WriteBW      int64 // bytes/second
	ReadLatency  int64 // ns
	WriteLatency int64 // ns
	// Cost in $/TB (Figure 1's economics column).
	DollarsPerTB int
}

// The Figure 1 table, plus the PCIe Gen 5 projection from §2.1.
var (
	DRAM = Profile{
		Type: "DRAM", Model: "SK Hynix DDR4 16GB",
		ReadBW: 15_000_000_000, WriteBW: 15_000_000_000,
		ReadLatency: 80, WriteLatency: 80,
		DollarsPerTB: 5427,
	}
	OptaneDCPMM = Profile{
		Type: "NVM", Model: "Intel Optane DCPMM 128GB",
		ReadBW: 6_800_000_000, WriteBW: 1_900_000_000,
		ReadLatency: 300, WriteLatency: 90,
		DollarsPerTB: 4096,
	}
	Optane905P = Profile{
		Type: "NVM SSD", Model: "Intel Optane 905P 960GB",
		ReadBW: 2_600_000_000, WriteBW: 2_200_000_000,
		ReadLatency: 10_000, WriteLatency: 10_000,
		DollarsPerTB: 1024,
	}
	Samsung980Pro = Profile{
		Type: "Flash SSD", Model: "Samsung 980 Pro 1TB (PCIe 4)",
		ReadBW: 7_000_000_000, WriteBW: 5_000_000_000,
		ReadLatency: 50_000, WriteLatency: 20_000,
		DollarsPerTB: 150,
	}
	Samsung980 = Profile{
		Type: "Flash SSD", Model: "Samsung 980 1TB (PCIe 3)",
		ReadBW: 3_500_000_000, WriteBW: 3_000_000_000,
		ReadLatency: 60_000, WriteLatency: 20_000,
		DollarsPerTB: 100,
	}
	PCIe5Flash = Profile{
		Type: "Flash SSD", Model: "PCIe 5 projection (§2.1)",
		ReadBW: 13_000_000_000, WriteBW: 6_600_000_000,
		ReadLatency: 50_000, WriteLatency: 20_000,
		DollarsPerTB: 150,
	}
)

// All lists the profiles in Figure 1 order (plus the PCIe 5 projection).
var All = []Profile{DRAM, OptaneDCPMM, Optane905P, Samsung980Pro, Samsung980, PCIe5Flash}

// SSDConfig returns the profile as a block-device configuration.
func (p Profile) SSDConfig() ssd.Config {
	return ssd.Config{
		Name:           p.Model,
		ReadLatency:    p.ReadLatency,
		WriteLatency:   p.WriteLatency,
		ReadBandwidth:  p.ReadBW,
		WriteBandwidth: p.WriteBW,
	}
}

// costDollars returns the Table 1-style cost of capacity bytes on this
// medium, in dollars.
func (p Profile) costDollars(capacityBytes int64) float64 {
	return float64(capacityBytes) / 1e12 * float64(p.DollarsPerTB)
}
