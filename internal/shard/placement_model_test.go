package shard

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

// The model harness on 3 range-placed shards, unreplicated and with 2
// replicas, while Fault events split ranges, migrate them (only with
// every shard up: a down source vetoes the stream) and crash: one replica
// at a time under R = 2, the whole store under R = 1, where a routed
// write the crash interrupted may or may not have landed.
func TestRangePlacementMatchesModel(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			model.Run(t, model.Config{Keys: 150, Steps: 2500}, func(t *testing.T) model.Level[core.KV, *core.Handle] {
				s := rng(t, 3, replicas, [][]byte{key(50), key(100)}, func(o *core.Options) { o.HSITCapacity = 1 << 10 })
				lv := routerLevel(s)
				down, crash := withReplicaFaults(&lv, s), lv.Fault
				if replicas == 1 {
					lv.Fates = map[error]model.Outcome{core.ErrClosed: model.Unknown}
					lv.Crash = func(uint64) { s.Crash() }
					lv.Recover = func() error { _, err := s.Recover(); return err }
					crash = func(uint64) error { s.Crash(); return lv.Recover() }
				}
				lv.Fault = func(arg uint64) error {
					switch arg % 3 {
					case 0:
						return s.SplitRange(key(int(arg / 3 % 150)))
					case 1:
						if down() >= 0 {
							return nil
						}
						return s.MigrateRange(int(arg/3)%s.Ranges(), int(arg/450)%3)
					}
					return crash(arg / 3)
				}
				return lv
			})
		})
	}
}

// TestMigrationMidFlightStress runs the model harness with 4 clients, each
// on its own router thread, while the main goroutine splits and migrates
// ranges under them — the strict race gate for the placement guard: no
// acked write may be lost across any number of epoch flips, and no op may
// fail while every shard is up.
func TestMigrationMidFlightStress(t *testing.T) {
	const shards = 3
	model.Run(t, model.Config{Clients: 4, Keys: 600, Steps: 600}, func(t *testing.T) model.Level[core.KV, *core.Handle] {
		s := rng(t, shards, 1, [][]byte{key(200), key(400)}, func(o *core.Options) { o.NumThreads = 4 })
		lv := routerLevel(s)
		lv.During = func() error {
			// Start once the clients have written something to move.
			for end := time.Now().Add(5 * time.Second); s.Len() < 100 && time.Now().Before(end); {
				runtime.Gosched()
			}
			for i := 0; i < 8; i++ {
				if split, ok := map[int]int{2: 100, 5: 300}[i]; ok {
					if err := s.SplitRange(key(split)); err != nil {
						return err
					}
				}
				ri := i % s.Ranges()
				if err := s.MigrateRange(ri, (ri+i)%shards); err != nil {
					return fmt.Errorf("MigrateRange(%d): %w", ri, err)
				}
			}
			return nil
		}
		return lv
	})
}
