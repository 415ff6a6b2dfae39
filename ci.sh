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
# Grep lint: operational counters must live in the unified metrics
# registry, not as raw atomics or hand-built *Metrics snapshot structs
# scattered across packages.
./tools/lint-metrics.sh
# Grep lint: one entry point per operation — no exported F beside
# FContext, no NewX beside NewXWith… (allowlist in the script).
./tools/lint-api.sh
# Grep lint: the portal streams every Flot document through the
# timeseries writers; a FlotJSON document wrapped in a RawMessage is
# buffered and re-compacted on every response.
if grep -n -e 'FlotJSON(' -e 'json\.RawMessage(' internal/portal/*.go | grep -v '_test\.go:'; then
	echo 'ci: internal/portal must stream Flot (WriteFlot), not call FlotJSON( or build json.RawMessage(' >&2
	exit 1
fi
# Grep lint: process outputs carry a series by reference and WPS streams
# it, so the WPS, workflow and core code never encodes one with FlotJSON
# (ParseFlotJSON, hydrostats' reading of a literal input, stays).
if grep -n '\.FlotJSON(' internal/ogc/wps/*.go internal/workflow/*.go internal/core/*.go | grep -v '_test\.go:'; then
	echo 'ci: internal/ogc/wps, internal/workflow and internal/core must not call FlotJSON( outside tests' >&2
	exit 1
fi
# Grep lint: a model run takes its scratch from the model package's
# pool, and a sweep fans out through sched.ForEach; caller-owned scratch
# or per-worker sweep state would be a second path beside them.
if grep -rnE 'ScratchModel|NewScratch|RunInto\(|NewRunner|SetChunk' --include='*.go' . |
	grep -v -e '_test\.go:' -e '^\./perfbench/'; then
	echo 'ci: run models through Run and fan out with sched.ForEach (no ScratchModel, NewScratch, RunInto, NewRunner or SetChunk)' >&2
	exit 1
fi
# Grep lint: the portal's route table declares each route's methods, and
# routes.go alone checks them; a handler comparing the method would bring
# back a per-route check beside the table, with no Allow header.
if grep -nE '\.Method *[!=]=|[!=]= *[A-Za-z_.]*\.Method\b|switch [A-Za-z_.]*\.Method\b|Contains\([^)]*\.Method\b' internal/portal/*.go |
	grep -v -e '_test\.go:' -e '^internal/portal/routes\.go:'; then
	echo 'ci: internal/portal checks methods only in routes.go, from the route table' >&2
	exit 1
fi
# Grep lint: no config field only tests turn — every exported field of
# an internal …Config/…Options/…Spec struct is set by a production
# caller outside its declaring file (allowlist in the script).
./tools/lint-knobs.sh
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
# parser regressions the seeded corpus alone would miss. The fuzzer list
# lives in tools/fuzz.sh, which `make fuzz` runs too.
./tools/fuzz.sh 10s
