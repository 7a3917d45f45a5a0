// Package prism is a from-scratch Go reproduction of Prism, the
// key-value store for modern heterogeneous storage devices described in
//
//	Song, Kim, Monga, Min, Eom. "Prism: Optimizing Key-Value Store for
//	Modern Heterogeneous Storage Devices." ASPLOS 2023.
//
// Prism places each component on the storage medium that best matches
// its needs: a Persistent Key Index and Heterogeneous Storage Index
// Table (HSIT) on byte-addressable NVM, per-thread Persistent Write
// Buffers (PWB) on NVM, log-structured Value Storage on flash SSDs, and
// a Scan-aware Value Cache (SVC) in DRAM. Cross-media concurrency
// control and crash consistency ride on the HSIT's forward/backward
// pointer coupling and dirty-bit flush-on-read protocol.
//
// The storage devices themselves are simulated (this reproduction runs
// without Optane DIMMs or NVMe arrays): NVM with cache-line flush/fence
// persistence semantics and crash simulation, SSDs with asynchronous
// submission/completion queues and a virtual-time bandwidth/latency
// model. All of Prism's algorithms — thread combining, 2Q caching,
// chunked log-structured writes, garbage collection, epoch-based
// reclamation, recovery — are implemented for real on top of that model.
// See DESIGN.md for the full substitution rationale.
//
// # Quick start
//
//	store, err := prism.Open(prism.Options{})
//	if err != nil { ... }
//	defer store.Close()
//
//	t := store.Thread(0) // one handle per application thread
//	t.Put([]byte("k"), []byte("v"))
//	v, err := t.Get([]byte("k"))
//	t.Scan([]byte("a"), 10, func(kv prism.KV) bool { ...; return true })
//
//	// Batch forms amortize the epoch toll: one critical section, one
//	// PWB publish window / merged read pass per batch. PutBatch is
//	// prefix-durable under crashes, not atomic.
//	t.PutBatch([]prism.KV{{Key: k1, Value: v1}, {Key: k2, Value: v2}})
//	vals, err := t.MultiGet([][]byte{k1, k2}) // nil entry = missing key
//
//	// Asynchronous submission goes further: PutAsync/GetAsync/
//	// DeleteAsync return immediately with a completion Handle, and a
//	// per-thread admission loop coalesces everything in flight into a
//	// few epoch windows whose fixed device latencies overlap (§5.4's
//	// TCQ/io_uring submission model). Handles resolve exactly once.
//	h := t.PutAsync([]byte("k"), []byte("v"))
//	g := t.GetAsync([]byte("k"))
//	t.Flush()                // drain: block until all in flight complete
//	if err := h.Wait(); err != nil { ... }
//	v, err = g.Value() // v is valid until g.Release()
//
// Thread handles are not safe for concurrent use; distinct handles run
// in parallel and scale with the paper's cross-storage concurrency
// control. The asynchronous methods are the exception: they may be
// called from any goroutine, and submissions through one handle apply
// in submission order.
//
// # Sharding
//
// Options.Shards > 1 opens that many independent stores behind a pure
// hash router (package internal/shard): keys place by FNV-1a 64 + jump
// consistent hash, single-key ops keep the pinned per-thread fast path
// on the owning shard, batches fan out to per-shard sub-batches in
// parallel, and Scan merges the shards' key-index walks and then reads
// each row once, on the shard that holds it. The
// default (0 or 1) runs a single shard with no routing overhead beyond
// one nil-check hash call.
//
// # Replication
//
// Options.Replicas > 1 (requires Shards >= Replicas) places every key
// on its jump-hash primary plus the next Replicas-1 shards in ring
// order. Writes fan out to all live replicas under one logical
// timestamp with last-writer-wins reconciliation; reads serve from the
// primary and fail over to successors on a miss or crash. A crashed
// shard (Store.CrashShard) leaves its keyspace fully served by the
// survivors; after Store.RecoverShard, background anti-entropy pull
// passes re-converge it (Store.Repair runs a pass by hand), with delete
// tombstones propagated and discarded after a grace window. Replicas
// set to 0 or 1 is bit-for-bit the unreplicated router.
//
// # Placement
//
// Options.Placement selects how the router places keys. The default,
// "hash", is the jump-hash placement above. "range" (requires Shards >
// 1) routes through a boundary table instead: Options.SplitKeys cuts
// the keyspace into contiguous ranges, each owned by one shard (its
// whole replica set when replicated), so a Scan touches only the shards
// whose ranges intersect it — no merge across non-owners. With no
// split keys the single all-covering range routes by hash until
// boundaries are learned online (Store.RebalanceRanges samples live
// keys, installs equal-population splits, and migrates each range to
// its owner).
//
// Range placement is resharded online: Store.SplitRange inserts a
// boundary (routing-only, no data moves), and Store.MigrateRange moves
// a range — with its whole replica set — to a new shard while serving
// traffic: catch-up stream, brief write freeze, delta stream, then an
// epoch-bumped table flip with a short dual-read window before the
// source copies are purged. An acked write is never lost across a
// migration, and crashes before the flip abort with placement
// unchanged. See DESIGN.md §4.8.
package prism

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/ssd"
)

// Options configures a Store; see core.Options for field documentation.
// The zero value opens a small test-sized store. Options.Shards selects
// horizontal scale-out (every shard gets the full per-shard resources).
type Options = core.Options

// Store is a Prism key-value store over simulated heterogeneous
// devices: a shard router over one or more core engine instances.
type Store = shard.Store

// Thread is one application thread's handle (virtual clock, and on each
// shard an epoch registration and private Persistent Write Buffer).
type Thread = shard.Thread

// KV is one key-value pair yielded by Thread.Scan.
type KV = core.KV

// Handle is the completion future returned by the asynchronous
// submission methods (Thread.PutAsync, GetAsync, DeleteAsync). Wait,
// Value, and CompletedAt block until the operation completes; Done
// polls. All methods are safe from any goroutine, repeatedly, until
// Release.
//
// Release is optional: it waits for completion and hands the handle back
// to its thread, so the next submission reuses it — handle, key and value
// copies, result buffer and all — and a steady stream of submissions
// allocates nothing. The bytes Value returns belong to the handle and
// are valid until Release; copy them first to keep them. A handle never
// released is garbage-collected. Release is a no-op on a handle the
// replicated router composed and on one that failed at submission.
type Handle = core.Handle

// Metrics is the store's observability snapshot: every registered metric
// with a stable name, labels, and value, JSON-serializable and sorted.
// Obtain one with (*Store).Metrics(); METRICS.md documents every name.
type Metrics = obs.Snapshot

// RecoveryReport summarizes a post-crash recovery pass.
type RecoveryReport = core.RecoveryReport

// Sentinel errors.
var (
	ErrNotFound = core.ErrNotFound
	ErrClosed   = core.ErrClosed
)

// Open creates a Store over fresh simulated NVM and SSD devices —
// opt.Shards of them when sharding is enabled.
func Open(opt Options) (*Store, error) { return shard.Open(opt) }

// ParseTierSpec parses the cmd tools' -tiers flag — a comma-separated
// device list, each "size[:writeMBps[:readMBps]]" with K/M/G suffixes —
// into per-device SSD configs for Options.SSDConfigs.
func ParseTierSpec(spec string) ([]ssd.Config, error) { return core.ParseTierSpec(spec) }

// ParseSplitKeys parses the cmd tools' -split flag — a comma-separated
// list of range boundary keys — into Options.SplitKeys. Empty segments
// are dropped; an empty spec returns nil (one all-covering range).
func ParseSplitKeys(spec string) [][]byte {
	var keys [][]byte
	start := 0
	for i := 0; i <= len(spec); i++ {
		if i == len(spec) || spec[i] == ',' {
			if i > start {
				keys = append(keys, []byte(spec[start:i]))
			}
			start = i + 1
		}
	}
	return keys
}
