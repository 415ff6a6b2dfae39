#!/bin/sh
# CI check tier: static analysis, race-enabled tests, the benchmark
# module, bench smoke, chaos and fuzz smoke. `make check` runs this
# script, so the tier list lives here only.
set -eu
cd "$(dirname "$0")"
go vet ./...
# Format gate: every Go file in the tree, the benchmark module included,
# is gofmt-clean.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo 'ci: gofmt -l lists unformatted files:' >&2
	printf '%s\n' "$unformatted" >&2
	exit 1
fi
# Lint: one type-checked program (tools/lint) holds every structural
# rule: no function only tests call, no F beside FContext, no knob only
# its own file sets, operational numbers in the metrics registry, Flot
# streamed, methods checked in the route table, models run through Run,
# and goroutines started only by their owners. Its allowlist is
# tools/lint/allow.txt.
go run ./tools/lint
go test -race -shuffle=on ./...
# Benchmark module: perfbench/ is its own Go module (replace evop => ../),
# so the root ./... never builds it, yet it compiles against the core,
# portal and metrics registry APIs.
(cd perfbench && go vet ./... && go test ./...)
# Benchmark smoke tier: every benchmark must still run (one iteration);
# catches bit-rot in the perf harness without timing anything.
go test -run='^$' -bench=. -benchtime=1x ./...
# Chaos tier: seeded fault-injection scenario + resilience regression
# tests + the compute pool's shutdown/leak checks + the periodic-timer
# ordering, re-arm and stop checks + the lock-free instance-list readers,
# twice under race in shuffled order on one and four CPUs — recovery must
# be deterministic and data-race free, and the readers must interleave
# with the writers even on a one-thread host.
go test -race -shuffle=on -count=2 -cpu 1,4 -run 'Chaos|Fault|Breaker|Backoff|Suspend|PoolClose|Every|Rearm|Stop|InstancesConcurrent' \
	./internal/loadbalancer ./internal/cloud/... ./internal/broker ./internal/resilience \
	./internal/admission ./internal/sched ./internal/clock ./internal/sensor
# Kernel-identity tier: the model kernels against their references and
# fresh scratch, concurrent runs, the golden sweeps and the input
# validators, under race on one and two CPUs, twice — a kernel change
# must keep every output bit for bit.
go test -race -count=2 -cpu 1,2 -run 'MatchesReference|FreshScratch|Concurrent|Golden|Validate' \
	./internal/hydro/... ./internal/catchment ./internal/core
# Fuzz smoke tier: run every fuzzer briefly on fresh mutations — catches
# parser regressions the seeded corpus alone would miss. The fuzzer list
# lives in tools/fuzz.sh, which `make fuzz` runs too.
./tools/fuzz.sh 10s
