package bench

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

func TestDiagPrismLoad(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*core.Options)
	}{
		{"default", nil},
		{"bigPWB", func(o *core.Options) { o.PWBBytesPerThread = 32 << 20 }},
		{"noSVC", func(o *core.Options) { o.DisableSVC = true }},
	} {
		p := RunConfig{Threads: 4, Records: 4000, ValueSize: 1024, PrismMut: tc.mut}
		st, _ := NewEngine(EnginePrism, p)
		rc := RunConfig{Threads: 4, Records: 4000, Ops: 8000}
		r := Load(st, EnginePrism, rc)
		ps := st.(*engine.PrismStore)
		stats := ps.S.Stats()
		fmt.Printf("%-8s LOAD=%6.1fK avg=%5.1fus p99=%6.1fus stalls=%d reclaims=%d migrated=%d\n",
			tc.name, r.KOpsPerSec(), r.Lat.AvgUS, r.Lat.P99US, stats.PutStalls, stats.Reclaims, stats.PWBLiveMigrated)
		st.Close()
	}
}
