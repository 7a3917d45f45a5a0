package bench

import (
	"slices"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/ssd"
	"repro/internal/ycsb"
)

// DiscussionMedia explores §8's claim that Prism's lessons carry to
// other storage media: the same engine, unchanged, over different Value
// Storage device profiles — PCIe 3/4 flash, the PCIe 5 projection, and
// an ultra-low-latency NVM SSD. Bandwidth-bound phases (LOAD) should
// track device bandwidth; latency-sensitive reads (YCSB-C misses) should
// track device latency.
func DiscussionMedia(rc RunConfig) Table {
	ws := []ycsb.Workload{ycsb.Load, ycsb.WorkloadA, ycsb.WorkloadC}
	t := Table{
		Title:  "Discussion (§8): Prism across storage media (Kops/sec)",
		Header: append([]string{"value-storage device"}, wnames(ws)...),
		Notes:  []string{"same engine and configuration; only the SSD profile changes"},
	}
	for _, prof := range []devices.Profile{
		devices.Samsung980,
		devices.Samsung980Pro,
		devices.PCIe5Flash,
		devices.Optane905P,
	} {
		rc.PrismMut = func(o *core.Options) {
			o.SSDConfigs = slices.Repeat([]ssd.Config{prof.SSDConfig()}, o.NumSSDs) // Size falls back to SSDBytes
		}
		t.Rows = append(t.Rows, kopsRow(prof.Model, cell(EnginePrism, rc, "", ws), ws))
	}
	return t
}
