#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it, passing every argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload public_browse --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the span dumps all stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"

(
	cd "$root/perfbench"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
		GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= \
		go build -o "$build/perfbench" .
)
exec "$build/perfbench" "$@"
