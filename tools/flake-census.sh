#!/bin/sh
# flake-census: run the tests of every package that starts goroutines
# many times under the race detector, at GOMAXPROCS 1, 2 and 4, and list
# each test that failed at least once with its failure rate. A test that
# fails only under some schedules shows up here long before it fails a
# CI run.
#
#   tools/flake-census.sh [count]    count runs per -cpu value (default 20)
#
# It prints one line per failing test (subtests included) and one per
# package that failed outside any test (a panic, a race report or a
# timeout), then a summary, and exits non-zero if anything failed.
set -eu
cd "$(dirname "$0")/.."
count=${1:-20}
pkgs='./internal/sched ./internal/runcache ./internal/ogc/wps ./internal/workflow
./internal/push ./internal/sensor ./internal/broker ./internal/portal ./internal/ws
./internal/hydro/fuse ./internal/hydro/topmodel ./internal/hydro/calibrate'

log=$(mktemp)
trap 'rm -f "$log"' EXIT
status=0
# shellcheck disable=SC2086 # pkgs is a word list
# The slowest package takes ~25 s per run under -race: give each count
# a minute and a few to spare rather than go test's 10-minute default.
go test -race -count="$count" -cpu 1,2,4 -timeout "$((count + 5))m" -v $pkgs >"$log" 2>&1 || status=$?

awk -v count="$count" '
$1 == "---" && ($2 == "PASS:" || $2 == "FAIL:") {
	runs[$3]++
	if ($2 == "FAIL:") fails[$3]++
}
$1 == "FAIL" && $2 ~ /^evop\// { pkgfail[$2] = 1 }
$1 == "ok" && $2 ~ /^evop\// { pkgs++ }
END {
	for (t in fails) {
		printf "FLAKY %s: %d of %d runs failed (%.2f%%)\n", t, fails[t], runs[t], 100 * fails[t] / runs[t] | "sort"
		nf++
	}
	for (p in pkgfail) {
		printf "FAILED package %s\n", p | "sort"
		np++
	}
	close("sort")
	for (t in runs) nt++
	printf "flake-census: %d tests (subtests included), -count=%d -cpu 1,2,4 -race: %d failing tests, %d of %d packages failed\n",
		nt, count, nf, np, pkgs + np
}' "$log"
if [ "$status" -ne 0 ]; then
	echo "flake-census: go test exited $status; failing output follows" >&2
	grep -E -A3 -- '--- FAIL|^panic:|^WARNING: DATA RACE|^FAIL' "$log" >&2 || true
fi
exit "$status"
