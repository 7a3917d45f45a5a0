package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/kvell"
	"repro/internal/lsm"
	"repro/internal/slmdb"
)

// Engine kinds, matching the paper's configurations of Table 1.
const (
	EnginePrism      = "prism"
	EngineKVell      = "kvell"
	EngineMatrixKV   = "matrixkv"
	EngineRocksDBNVM = "rocksdb-nvm"
	EngineSLMDB      = "slm-db"
)

// AllEngines lists every implemented engine.
var AllEngines = []string{EnginePrism, EngineKVell, EngineMatrixKV, EngineRocksDBNVM, EngineSLMDB}

func clamp64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// PrismOptions returns the scaled Prism configuration for rc.
func PrismOptions(rc RunConfig) core.Options {
	rc.applyDefaults()
	ds := rc.dataset()
	chunk := clamp64(ds/256, 16<<10, 512<<10) / 16 * 16
	pwbPer := clamp64(ds*16/100/int64(rc.Threads), 64<<10, 1<<30) / 16 * 16
	opt := core.Options{
		NumThreads:        rc.Threads,
		PWBBytesPerThread: int(pwbPer),
		HSITCapacity:      rc.Records*4 + 1024,
		NumSSDs:           rc.NumSSDs,
		SSDBytes:          clamp64(ds*4/int64(rc.NumSSDs), 4<<20, 1<<40),
		ChunkSize:         int(chunk),
		SVCBytes:          clamp64(ds*20/100, 256<<10, 1<<40),
		QueueDepth:        rc.QueueDepth,
		Shards:            rc.Shards,
		Replicas:          rc.Replicas,
		Placement:         rc.Placement,
		SplitKeys:         rc.SplitKeys,
	}
	// An empty spec parses to no devices; Flags has refused a malformed one.
	if cfgs, err := core.ParseTierSpec(rc.TierSpec); err == nil && len(cfgs) > 0 {
		opt.SSDConfigs = cfgs
		opt.NumSSDs = len(cfgs)
		opt.EnableTiering = true
	}
	if rc.PrismMut != nil {
		rc.PrismMut(&opt)
	}
	return opt
}

// NewEngine opens a cost-equalized engine instance: Table 1's cost-equal
// memory split scaled to the (much smaller) simulated dataset — Prism
// 20% DRAM cache + 16% NVM buffer, KVell 32% DRAM cache, MatrixKV 26%
// DRAM + 8% NVM, the same ratios as 20/16/32/26/8 GB against the paper's
// 100 GB dataset.
func NewEngine(kind string, rc RunConfig) (engine.Store, error) {
	rc.applyDefaults()
	ds := rc.dataset()
	switch kind {
	case EnginePrism:
		return engine.NewPrism(PrismOptions(rc))
	case EngineKVell:
		item := (rc.ValueSize + 32 + 15) / 16 * 16
		return kvell.Open(kvell.Config{
			NumSSDs:    rc.NumSSDs,
			SSDBytes:   clamp64(ds*3/int64(rc.NumSSDs), 4<<20, 1<<40),
			ItemSize:   item,
			CacheBytes: clamp64(ds*32/100, 256<<10, 1<<40),
			QueueDepth: rc.QueueDepth,
			Clients:    rc.Threads,
		}), nil
	case EngineMatrixKV:
		cfg := lsm.MatrixKVConfig(rc.Threads, rc.NumSSDs)
		cfg.DataBytes = clamp64(ds*4/int64(rc.NumSSDs), 8<<20, 1<<40)
		cfg.MemtableBytes = clamp64(ds/64, 64<<10, 1<<30)
		cfg.MatrixCap = clamp64(ds*8/100, 128<<10, 1<<40)
		cfg.MatrixColumns = 4 // coarser columns at simulation scale so runs drain
		cfg.BlockCacheBytes = clamp64(ds*26/100, 256<<10, 1<<40)
		cfg.LevelBaseBytes = 8 * cfg.MemtableBytes
		cfg.TableTargetBytes = 2 * cfg.MemtableBytes
		cfg.WALBytes = clamp64(ds/4, 4<<20, 1<<40)
		return lsm.Open(cfg), nil
	case EngineRocksDBNVM:
		cfg := lsm.RocksDBNVMConfig(rc.Threads)
		cfg.DataBytes = clamp64(ds*6, 16<<20, 1<<40)
		cfg.MemtableBytes = clamp64(ds/64, 64<<10, 1<<30)
		cfg.BlockCacheBytes = clamp64(ds*26/100, 256<<10, 1<<40)
		cfg.LevelBaseBytes = 8 * cfg.MemtableBytes
		cfg.TableTargetBytes = 2 * cfg.MemtableBytes
		cfg.WALBytes = clamp64(ds/4, 4<<20, 1<<40)
		return lsm.Open(cfg), nil
	case EngineSLMDB:
		return slmdb.Open(slmdb.Config{
			MemtableBytes:  clamp64(ds/128, 32<<10, 1<<30),
			SSDBytes:       clamp64(ds*4, 16<<20, 1<<40),
			PageCacheBytes: clamp64(ds*32/100, 256<<10, 1<<40),
		}), nil
	}
	return nil, fmt.Errorf("bench: unknown engine %q", kind)
}
