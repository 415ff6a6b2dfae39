#!/bin/sh
# lint-metrics: keep every operational number in the unified registry.
#
# Every operational counter belongs in the unified registry
# (internal/metrics) so it shows up in /metrics JSON and the Prometheus
# exposition with a name, help text and labels. Two patterns in
# production code bypass it:
#
#   - A raw atomic.Uint64 / atomic.Int64 is almost always a counter that
#     should be a metrics.Counter or metrics.Gauge instead.
#   - A `type <Name>Metrics struct` is almost always a hand-built
#     snapshot assembled for a metrics view; /metrics is the registry
#     snapshot, so the values belong in registered instruments or
#     callback gauges instead.
#   - A `type <Name>Stats struct` or a `Stats()` method is almost always
#     a second read path that re-reads registered instruments; tests and
#     callers read the registry (reg.Counter(name, "", labels...) is
#     get-or-create, reg.Snapshot() covers gauges) instead.
#
# Each allowlist below is the closed set of legitimate exceptions, one
# path and reason per line. Additions to them need a review, not a
# reflex; an entry whose file no longer matches its pattern is stale and
# fails the lint too.
set -eu
cd "$(dirname "$0")/.."

atomic_allow='
internal/push/push.go          publish sequence + live-subscription bookkeeping, not counters
internal/portal/middleware.go  request-ID sequence generator
internal/ws/handshake.go       connection sequence generator
'

struct_allow='
internal/cloud/instance.go     simulated host readings the load balancer acts on
'

stats_allow='
internal/cloud/faulty.go                 injected-fault tallies; the cloud package has no registry instruments
internal/ws/conn.go                      per-connection frame counts; the ws package has no registry instruments
internal/timeseries/ops.go               a statistical summary of a series, not counters
internal/cloud/crosscloud/crosscloud.go  providerStats holds registered instruments, not a snapshot
'

# hits prints the production (non-test) lines outside internal/metrics
# that match the grep pattern $1 in the remaining paths.
hits() {
	pattern=$1
	shift
	grep -rn "$pattern" --include='*.go' "$@" 2>/dev/null |
		grep -v '_test\.go:' |
		grep -v '^internal/metrics/' || true
}

# allowed prints the paths of the allowlist $1.
allowed() {
	printf '%s\n' "$1" | awk 'NF {print $1}'
}

# offenders prints the hits $1 outside the files of the allowlist $2.
offenders() {
	bad=$1
	for path in $(allowed "$2"); do
		bad=$(printf '%s\n' "$bad" | grep -v "^$path:" || true)
	done
	printf '%s\n' "$bad" | grep . || true
}

# stale prints the entries of the allowlist $2 that match none of the
# hits $1.
stale() {
	for path in $(allowed "$2"); do
		printf '%s\n' "$1" | grep -q "^$path:" || echo "$path"
	done
}

# reject_stale fails the lint for every entry of the allowlist $2
# (named $3) that matches none of the hits $1.
reject_stale() {
	gone=$(stale "$1" "$2")
	[ -z "$gone" ] && return 0
	echo "lint-metrics: $3 entries whose file no longer matches:" >&2
	printf '%s\n' "$gone" >&2
	echo "Delete them from $3 in tools/lint-metrics.sh." >&2
	echo >&2
	status=1
}

status=0

found=$(hits 'atomic\.\(Uint64\|Int64\)' internal cmd evop.go)
reject_stale "$found" "$atomic_allow" atomic_allow
bad=$(offenders "$found" "$atomic_allow")
if [ -n "$bad" ]; then
	echo 'lint-metrics: raw atomic counters outside internal/metrics:' >&2
	printf '%s\n' "$bad" >&2
	echo >&2
	echo 'Use a metrics.Counter / metrics.Gauge from the observatory' >&2
	echo 'registry instead, or (for a genuine non-metric atomic) add the' >&2
	echo 'file to atomic_allow in tools/lint-metrics.sh with a reason.' >&2
	status=1
fi

found=$(hits 'type [A-Za-z0-9_]*Metrics struct' internal cmd examples evop.go)
reject_stale "$found" "$struct_allow" struct_allow
bad=$(offenders "$found" "$struct_allow")
if [ -n "$bad" ]; then
	echo 'lint-metrics: hand-built metrics structs outside internal/metrics:' >&2
	printf '%s\n' "$bad" >&2
	echo >&2
	echo 'Register the values as instruments or callback gauges in the' >&2
	echo 'observatory registry instead (/metrics serves its snapshot), or' >&2
	echo 'add the file to struct_allow in tools/lint-metrics.sh with a reason.' >&2
	status=1
fi

found=$(hits 'type [A-Za-z0-9_]*Stats struct\|func ([^)]*) Stats()' internal cmd examples evop.go)
reject_stale "$found" "$stats_allow" stats_allow
bad=$(offenders "$found" "$stats_allow")
if [ -n "$bad" ]; then
	echo 'lint-metrics: Stats snapshots or accessors outside internal/metrics:' >&2
	printf '%s\n' "$bad" >&2
	echo >&2
	echo 'Read the registered instruments from the registry instead, or' >&2
	echo '(for numbers no registry holds) add the file to stats_allow in' >&2
	echo 'tools/lint-metrics.sh with a reason.' >&2
	status=1
fi

[ "$status" -eq 0 ] && echo 'lint-metrics: ok'
exit "$status"
