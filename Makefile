# Offline-only build: everything is Go standard library.

GO ?= go

.PHONY: all build vet test race bench bench-smoke bench-module fuzz-smoke fault-smoke mutants ci-check fmt-check tidy-check ci check-docs loc

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race target is strict — no skips, no quarantines: the seed
# reclamation/publish race is fixed (see ROADMAP "RESOLVED (PR 3)") and
# TestPWBReclaimPublishStress in internal/core is its permanent
# regression gate; TestShardBatchFanoutStress in internal/shard is the
# equivalent gate for the cross-shard batch fan-out — a loop on the
# caller's goroutine, so what it guards is router threads sharing no
# scratch and no core thread while their legs meet on the same shards and
# their reclaimers (re-run explicitly with -count=1 so a cached pass can
# never mask it),
# TestMixedSetReadersStress in internal/tcq for one-request and
# multi-request readers sharing a combining queue, and TestGCChurnStress
# in internal/core for reclaimers, Value Storage GC and the scan-range
# rewrite relocating values at once (DESIGN.md §4.12), and
# TestReclaimAdmissionNeverStale for the reclaimers handing values to the
# SVC beside writers and readers of the same keys (§4.13), and
# TestWindowKeepsSubmissionOrderPerKey and TestWindowStallMidWindow for
# the one-pass admission window: RESP order per key while gets wait for
# the window's Value Storage batch, and a put stalling mid-window with
# such gets outstanding (§4.5), and TestClaimersInsideSettle and
# TestRelocationChargesSwingsAfterWrite for GC and demotion claiming
# chunks from inside every relocation caller's settle, and every caller
# charging its swings after its write, overlapped, beside the live background loops
# (the demotion row of the first races maintenanceLoop's own pass by
# design; DESIGN.md §4.12), and TestPublishActsOnTheCurrentWord and
# TestPrefetchedPublishStress in internal/hsit for a writer whose entry is
# moved, flushed or admitted to between its prefetch and its publish
# (DESIGN.md §3.5), and TestConcurrentOwnershipProperty in internal/core
# for four clients of the one model harness (internal/model) beside the
# live reclaimers and Value Storage GC, ending in CheckInvariants, and
# TestMigrationMidFlightStress in internal/shard for four such clients
# while ranges split and migrate under them, and
# TestGCPassesRunPerDevice, TestWriteCrossingTheTriggerDecaysItOnce and
# TestUndrivenPassesStartAtThePresent for the one kick, loop and due-test
# of core's background passes (DESIGN.md §3.5), and TestSVCEntryReuseStress
# in internal/core for readers checking every value's key and CRC while
# puts and evictions churn a small SVC whose dropped entries are reused
# two epochs later (DESIGN.md §4.13), and TestHandleReuseStress in
# internal/core and TestReplyOutlivesHandleStress in internal/server for
# goroutines and connections sharing one thread's reused async handles
# (DESIGN.md §4.5). internal/bench's suite is
# whole YCSB runs of every baseline engine, which the detector's ~20x
# slowdown stretches for no Prism code the other packages leave
# uncovered, so that one package contributes a bounded concurrent-load
# smoke instead of its whole suite; every other package runs in full.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v internal/bench)
	$(GO) test -race -count=1 -run 'TestShardBatchFanoutStress$$' ./internal/shard
	$(GO) test -race -count=1 -run 'TestReplicaFanoutStress$$' ./internal/shard
	$(GO) test -race -count=1 -run 'TestMigrationMidFlightStress$$' ./internal/shard
	$(GO) test -race -count=1 -run 'TestAsyncCompletionStress$$' ./internal/core
	$(GO) test -race -count=1 -run 'TestConcurrentOwnershipProperty$$' ./internal/core
	$(GO) test -race -count=1 -run 'TestAdaptiveWatermarkBurstStress$$' ./internal/core
	$(GO) test -race -count=1 -run 'TestGCChurnStress$$' ./internal/core
	$(GO) test -race -count=1 -run 'TestReclaimAdmissionNeverStale$$' ./internal/core
	$(GO) test -race -count=1 -run 'TestWindowKeepsSubmissionOrderPerKey$$|TestWindowStallMidWindow$$' ./internal/core
	$(GO) test -race -count=1 -run 'TestClaimersInsideSettle$$|TestRelocationChargesSwingsAfterWrite$$' ./internal/core
	$(GO) test -race -count=1 -run 'TestGCPassesRunPerDevice$$|TestWriteCrossingTheTriggerDecaysItOnce$$|TestUndrivenPassesStartAtThePresent$$' ./internal/core
	$(GO) test -race -count=1 -run 'TestSVCEntryReuseStress$$' ./internal/core
	$(GO) test -race -count=1 -run 'TestHandleReuseStress$$' ./internal/core
	$(GO) test -race -count=1 -run 'TestPublishActsOnTheCurrentWord$$|TestPrefetchedPublishStress$$' ./internal/hsit
	$(GO) test -race -count=1 -run 'TestDiagPrismLoad$$' ./internal/bench
	$(GO) test -race -count=1 -run 'TestDispatchContentionStress$$|TestReplyOutlivesHandleStress$$' ./internal/server
	$(GO) test -race -count=1 -run 'TestMixedSetReadersStress$$' ./internal/tcq

# loc prints the non-blank, non-comment lines of non-test Go code per
# package — the measure ROADMAP.md and CHANGES.md quote when a PR claims
# to have removed code (per file: grep -cvE '^\s*(//.*)?$$' file.go) —
# then, in a second column, the package's _test.go lines counted by the
# same rule, and, last, both totals: the first is the tree's size as
# ROADMAP.md quotes it, the two together are what a PR that moves code
# between tests and production changes.
loc:
	@$(GO) list -f '{{.Dir}}' ./... | { t=0; u=0; while read d; do \
		n=$$(ls $$d/*.go | grep -v _test.go | xargs -r cat | grep -cvE '^[[:space:]]*(//.*)?$$'); \
		m=$$(ls $$d/*.go | grep _test.go | xargs -r cat | grep -cvE '^[[:space:]]*(//.*)?$$'); \
		t=$$((t+n)); u=$$((u+m)); printf '%6d %6d %s\n' $$n $$m .$${d#$(CURDIR)}; done; \
		printf '%6d %6d total\n' $$t $$u; }

# fmt-check fails (listing the files) if any file needs gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# tidy-check fails if go.mod/go.sum are not tidy (offline-safe: the
# module is stdlib-only).
tidy-check:
	$(GO) mod tidy -diff

# check-docs fails if METRICS.md names a metric the registry does not
# export (or vice versa), if a doc that describes the present cites a
# ROADMAP item by number rather than by title, or if a doc every session
# reads outgrows its byte budget — see docs_test.go.
check-docs:
	$(GO) test -run 'TestMetricsDocsComplete|TestReadmeMentionsMetrics|TestDocsCiteRoadmapItemsByTitle|TestDocsByteBudget' -count=1 .

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# bench-smoke runs the Put benchmarks once: benchmark code can never
# silently rot, and the job log shows the batch-vs-single comparison
# (BenchmarkPut's epoch-enters/op = 1.0 vs BenchmarkPutBatch/size=32's
# amortized fraction), what a put costs in the model (BenchmarkPut's
# virt-ns/op and nvm-loads/op = 1.0: one HSIT entry read per put,
# DESIGN.md §3.5), the sharding scale-out comparison
# (BenchmarkPutSharded's virt-Kops/s at shards=1 vs shards=4), and the
# pipelining comparison (BenchmarkPutPipelined's virt-Kops/s at depth=1
# vs depth=32) at a longer benchtime so the counters are stable; beside
# them, the overlap frame's two lines (DESIGN.md §4.5):
# BenchmarkMixedPipelined's virt-Kops/s for an alternating SET/GET stream
# at depth=1 vs depth=16, and BenchmarkScanResident's virt-ns/scan for 50
# PWB-resident rows; and the merged scan's: BenchmarkScanMerged's
# rows-read/scan and shard-scans/scan for 50 flash-resident rows through
# the router — 50 and 2 at 3 shards x 2 replicas, 50 and 4 at 4 x 1: each
# row read once, a covering set of the shards walked. The
# second line is the reclaim path's: BenchmarkReclaimPass prints wall ns,
# virtual ns (pwb.reclaim_ns, from the writer's present as a kick starts
# a pass), heap bytes, heap objects and SVC hand-offs per migrated record for a
# write-only pass and for one whose every record was read first (an entry
# and a value copy each), beside its AllocsPerRun gates (a pass nobody
# reads behind allocates per chunk written, not per record — with the
# cache off and on).
# The third is the device channel's: BenchmarkResourceAcquire prints ns
# and allocations per sim.Resource.Acquire for one clock and for two
# clocks 5 ms apart, beside its allocates-once gate.
# The last is the paper's headline figure at its thread count: Fig 7 with
# 40 simulated threads takes most of a minute, so it runs here and not in
# `go test` (internal/bench's TestSmokeFig7 asserts the same table at 2).
# Before it, every entry of bench.Experiments runs once at toy scale: tier-1
# reaches the table code of only a few of them, so this is what keeps the
# other builders from rotting — a cell that fails to open, or whose
# operations fail, panics (EXPERIMENTS.md, "How an experiment is built");
# the numbers at 400 records mean nothing. Then every example runs once
# (all five in about a second): they read the store's counters by series
# name and exit non-zero when one they print is missing.
bench-smoke:
	$(GO) test -bench='Benchmark(Put($$|Batch|Sharded|Pipelined)|MixedPipelined|ScanResident|ScanMerged)' -benchtime=1000x -run '^$$' .
	$(GO) test -bench='BenchmarkReclaimPass$$' -benchtime=20x -count=1 -run 'TestReclaimPassAllocs$$|TestWriteOnlyReclaimAdmitsNothing$$' ./internal/core
	$(GO) test -bench='BenchmarkResourceAcquire$$' -benchtime=200000x -count=1 -run 'TestResourceAcquireAllocatesOnce$$' ./internal/sim
	$(GO) run ./cmd/prism-bench -run all -threads 2 -records 400 -ops 400
	$(GO) run ./cmd/prism-bench -run fig7 -threads 40 -records 10000 -ops 40000
	for e in examples/*/; do $(GO) run ./$$e || exit 1; done

# bench-module vets and tests benchmark/, the repo benchmark: it is its
# own module (`replace repro => ../`), so `go build ./... && go test
# ./...` here only vets it (TestBenchmarkModuleVets), yet it imports the
# root package, core, server, respclient and the layer packages — its
# own tests run only here.
bench-module:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# fuzz-smoke runs short fuzz passes over the RESP parser, the range
# placement boundary table (decode/encode roundtrip + split-key
# selection invariants) and the value-record codec (no panic, no value
# past the bytes read, encode/decode roundtrip).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzBoundaryTable -fuzztime 10s ./internal/shard
	$(GO) test -run '^$$' -fuzz FuzzRecord -fuzztime 10s ./internal/record

# fault-smoke is the crash-fault gate: the replica-kill matrix (crash a
# replica mid write-burst, assert reads keep being served and no acked
# write is lost, then assert anti-entropy repair converges — see
# internal/shard/fault_test.go) plus the migration crash matrix (kill
# the source shard at every protocol stage and assert abort-or-complete
# with no acked write lost — see internal/shard/migrate_fault_test.go),
# plus the one pull path's two contracts: a peer whose devices crash
# after a repair pass read its state vetoes promotion like a down peer
# (TestRepairWaitsForUnreadablePeer), and a migration's freeze reads
# only the records a destination lacks (TestMigrationDeltaReadsOnlyTheDelta);
# plus the one op path's: the sync and async paths give the same answer
# and move the same replica counters on the same fault
# (TestRouterSyncAsyncAgree), an oversized value is the write's answer and
# demotes no replica (TestOversizedValueKeepsReplicasUp), and Metrics reads
# a crashed shard without panicking (TestMetricsWhileShardCrashed); plus
# the one scan path's: a shard crashing under a range read, hash-owned or
# owned, is planned around onto its set's survivors
# (TestScanReplansAfterCrashBetweenPhases).
fault-smoke:
	$(GO) test -count=1 -run 'TestFaultMatrix$$|TestMigrationFaultMatrix$$|TestMigrationDestMemberCrash$$|TestRepairWaitsForUnreadablePeer$$|TestMigrationDeltaReadsOnlyTheDelta$$|TestRouterSyncAsyncAgree$$|TestOversizedValueKeepsReplicasUp$$|TestMetricsWhileShardCrashed$$|TestScanReplansAfterCrashBetweenPhases$$' ./internal/shard

# mutants puts back, one at a time, bugs the suite once caught, and
# requires the test named beside each to catch it again: every
# mutants/*.patch is applied to a temporary git worktree of the tracked
# files and its "killer:" test runs there with -count=1. It fails if a
# patch no longer applies (refresh it in the change that moves the code)
# or a killer passes. See mutants/run.sh.
mutants:
	./mutants/run.sh

# ci-check asserts the Makefile ci target and .github/workflows/ci.yml
# stay in lockstep: every make target the workflow runs must be a
# prerequisite of `ci`, and vice versa (see ci_parity_test.go).
ci-check:
	$(GO) test -run 'TestMakefileCIMatchesWorkflow$$' -count=1 .

# ci is the full gate, mirrored target-for-target by
# .github/workflows/ci.yml (ci-check enforces the mirror): build, vet,
# formatting/tidy hygiene, plain and race-enabled tests, the METRICS.md
# doc-link checker, the benchmark/fuzz/fault smokes, and the benchmark
# module's own vet + tests.
ci: build vet fmt-check tidy-check test race check-docs bench-smoke bench-module fuzz-smoke fault-smoke mutants ci-check
