package lsm

import "repro/internal/ssd"

// RocksDBNVMConfig returns the RocksDB-NVM baseline of §7.1: a leveled
// LSM tree whose WAL and SSTables all live on NVM-speed block storage —
// "a reference point showing the maximum performance of LSM-tree based
// approaches". Its capacities are test-sized; callers resize them.
func RocksDBNVMConfig(threads int) Config {
	return Config{
		Name:          "rocksdb-nvm",
		Threads:       threads,
		WAL:           NVMBlockConfig(),
		Data:          NVMBlockConfig(),
		NumDataDevs:   1,
		DataBytes:     64 << 20,
		MemtableBytes: 1 << 20,
		WALBytes:      16 << 20,
	}
}

// MatrixKVConfig returns the MatrixKV baseline of §7.1: WAL on NVM, an
// 8 GB-analogue NVM matrix container as L0 with column compaction, and
// L1+ striped across the flash SSD array.
func MatrixKVConfig(threads, numSSDs int) Config {
	if numSSDs == 0 {
		numSSDs = 2
	}
	return Config{
		Name:          "matrixkv",
		Threads:       threads,
		WAL:           NVMBlockConfig(),
		Data:          ssd.Config{}, // flash defaults (980 PRO)
		NumDataDevs:   numSSDs,
		DataBytes:     64 << 20,
		MemtableBytes: 1 << 20,
		WALBytes:      16 << 20,
		MatrixL0:      true,
		MatrixCap:     8 << 20, // the paper's 8 GB L0, scaled
	}
}
