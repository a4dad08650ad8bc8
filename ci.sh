#!/bin/sh
# CI gate: vet, build, then the full test suite under the race detector.
# The -race run includes the concurrency tests that drive Host.Tick
# against participant attach/detach and BroadcastExtension, and the
# determinism tests that run under -cpu 1,4.
set -eux

cd "$(dirname "$0")"

go vet ./...
go build ./...
go test -race ./...
# Flake gate for the slow-viewer mechanism (quality ladder + eviction
# budgets): its tests mix the virtual sweep clock with real sink
# goroutines, and the hysteresis and dwell assertions are exactly the
# kind that only flake under load — rerun them under -race.
go test -race -count=5 -run 'Liveness|Ladder' . ./internal/ah ./internal/transport
# Scenario-matrix smoke: every netsim profile with all oracles and the
# planted-fault mutation checks, under the race detector (short
# profiles, fixed seeds — see EXPERIMENTS.md Section C).
go test -race -count=1 -run 'ScenarioMatrix|ScenarioMutation' .
# The refactoring safety net itself: every scenario's journal digest
# against testdata/scenario_digests.txt, and every scenario replayed
# twice byte for byte, on one, two and four procs — a digest that
# depends on scheduling shows up here, not in a later PR's diff.
go test -race -cpu 1,2,4 -count=1 -run 'TestScenarioDigestsFrozen|TestScenarioDeterminism' .
# Sharded send path gates (see DESIGN.md "Sharded send path"). Storm
# scenarios at flash-crowd scale with every oracle armed, plus the
# shard-count replay-invariance proof, under the race detector.
go test -race -count=1 -run 'TestScenarioStorms|TestStormShardInvariance' .
# Shard churn: concurrent flash-crowd attach/detach/evict against the
# tick loop with counter reconciliation, the per-remote byte-stream
# parity proof, and the encode pool's byte-identical batches with large
# rectangles split into bands (geometry, tile keys, effort and cache,
# pointer, refresh latch, convergence over loss), on one and four procs.
go test -race -cpu 1,4 -count=2 -run 'TestShardChurnFlashCrowd|TestShardByteStreamParity|TestParallelEncodeDeterminism|TestBand' ./internal/ah ./internal/capture .
# Allocation-free send path gates, on the same procs: what a tick (or a
# relay's forwarded batch) allocates must not grow with the viewer
# count, a batch handed to a forwarder or re-fanned by a relay must not
# be converted on the way, and neighbours that trash their datagrams
# after sending must not change a byte of another viewer's stream on the
# shared shard arena.
go test -race -cpu 1,4 -count=2 -run 'TestFanoutAllocatesNothingPerViewer|TestForwardersGetThePreparedBatchItself|TestArenaIsolationScribblingNeighbours|TestRelayFanoutAllocatesNothingPerViewer|TestRelayForwardBatchAllocatesNothing' ./internal/ah ./internal/relay
# Tile-store flake gate: the eviction-coherence and revisit tests pump
# packets through real goroutines while asserting exact desync/reference
# counts — rerun them under -race across every package holding a piece
# of the tile pipeline (dictionary, wire message, negotiation, host
# substitution, viewer apply).
go test -race -count=5 -run Tile ./internal/ah ./internal/codec ./internal/participant ./internal/remoting ./internal/sdp
# Relay cascade flake gate: the relay's fan-out runs on the origin's
# Tick goroutine while viewer feedback arrives on pump goroutines, and
# the cache/latch handoff between them is exactly the kind of ordering
# that only breaks under scheduler pressure — rerun the relay tests
# repeatedly under -race (TestRelayAttachRacingCloseLeavesNoViewer, 200
# attach-vs-Close rounds a run, among them).
go test -race -count=5 -run Relay ./internal/relay
# 2-level-tree smoke: origin → relay → edge viewers with every oracle
# armed (including relay-cascade: zero edge-triggered origin encodes),
# plus its replay-determinism proof, under the race detector.
go test -race -count=1 -run 'TestScenarioMatrix/relay-tree|TestScenarioDeterminism/relay-tree' .
# Broker/migration flake gate: the broker's sweep clock is virtual but
# the host checkpoint it snapshots is produced on the tick goroutine,
# and the standby's resumed sinks run real sender goroutines — rerun
# the whole broker + migration surface repeatedly under -race.
go test -race -count=5 -run 'Broker|Migrate|Migration|Snapshot|Sweep|Placement|FloorState' . ./internal/broker ./internal/bfcp
# Snapshot round-trip determinism at 1 and 4 send shards on one and
# four procs: restore-then-tick must be byte-identical to the original
# host's output, shard count and scheduling notwithstanding.
go test -race -cpu 1,4 -count=1 -run 'TestSnapshotRoundTripDeterminism' .
# Partition-then-migrate smoke: every migration scenario with all
# oracles armed (failover tick pinned, floor custody, zero standby
# refresh encodes), the replay-determinism proof, both planted handoff
# mutations and the broker wire-invisibility check, under the race
# detector (seeds 140-149 — see EXPERIMENTS.md Section C).
go test -race -count=1 -run 'TestMigrationFamily|TestMigrationDeterminism|TestMigrationMutation|TestBrokerSurvivorJournalIdentity' .
# Replay the tree and failover scenarios through the ads-bench scenario
# driver — the same seeds and oracles a developer reaches for when a
# matrix failure needs reproducing outside the test harness.
go run ./cmd/ads-bench -scenarios -scenario relay-tree
go run ./cmd/ads-bench -scenarios -scenario migrate-shards
# The repository benchmark is a module of its own (benchmark/go.mod), so
# nothing above compiles it: a product API change could break its build
# unseen. Vet it and run its unit tests and topology smokes.
(cd benchmark && go vet . && go test -short ./...)
# Bench drift: re-measure every entry of BENCH_baseline.json that a
# drift rule reads and apply the rules (cmd/ads-bench/suite.go; the
# table is in EXPERIMENTS.md "Recorded benchmarks").
go run ./cmd/ads-bench -drift BENCH_baseline.json
# The same benchmark bodies through their other entry point, one
# iteration each, so neither side can rot unseen.
go test -run '^$' -bench 'E03|E04|E08|E10|E11|E19|E20|E21|E22ShardedFanout/viewers-128' -benchtime 1x .
