#!/bin/sh
# CI check tier: static analysis, race-enabled tests, the benchmark
# module, bench smoke, chaos and fuzz smoke. `make check` runs this
# script, so the tier list lives here only.
set -eu
cd "$(dirname "$0")"
go vet ./...
# Grep lint: operational counters must live in the unified metrics
# registry, not as raw atomics or hand-built *Metrics snapshot structs
# scattered across packages.
./tools/lint-metrics.sh
# Grep lint: one entry point per operation — no exported F beside
# FContext, no NewX beside NewXWith… (allowlist in the script).
./tools/lint-api.sh
go test -race -shuffle=on ./...
# Benchmark module: perfbench/ is its own Go module (replace evop => ../),
# so the root ./... never builds it, yet it compiles against the core,
# portal and metrics registry APIs.
(cd perfbench && go vet ./... && go test ./...)
# Benchmark smoke tier: every benchmark must still run (one iteration);
# catches bit-rot in the perf harness without timing anything.
go test -run='^$' -bench=. -benchtime=1x ./...
# Chaos tier: seeded fault-injection scenario + resilience regression
# tests + the compute pool's shutdown/leak checks, twice under race in
# shuffled order — recovery must be deterministic and data-race free.
go test -race -shuffle=on -count=2 -run 'Chaos|Fault|Breaker|Backoff|Suspend|PoolClose' \
	./internal/loadbalancer ./internal/cloud/... ./internal/broker ./internal/resilience \
	./internal/admission ./internal/sched
# Fuzz smoke tier: run every fuzzer briefly on fresh mutations — catches
# parser regressions the seeded corpus alone would miss. One -fuzz
# pattern per invocation (go test requires it to match exactly one).
go test -fuzz='^FuzzReadFrame$' -fuzztime 10s ./internal/ws
go test -fuzz='^FuzzParseDataInputs$' -fuzztime 10s ./internal/ogc/wps
go test -fuzz='^FuzzParseExecuteDocument$' -fuzztime 10s ./internal/ogc/wps
go test -fuzz='^FuzzParseFlotJSON$' -fuzztime 10s ./internal/timeseries
go test -fuzz='^FuzzReadCSV$' -fuzztime 10s ./internal/timeseries
# Differential fuzzer: the rollup index must agree with the naive scan
# for arbitrary ingest orders, cadences and query windows.
go test -fuzz='^FuzzRollupVsNaive$' -fuzztime 10s ./internal/timeseries
# Token-bucket invariant fuzzer: client table stays LRU-bounded and
# every bucket stays within [0, burst] for arbitrary op/advance streams.
go test -fuzz='^FuzzTokenBucket$' -fuzztime 10s ./internal/admission
