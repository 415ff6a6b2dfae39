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
# reflex.
set -eu
cd "$(dirname "$0")/.."

atomic_allow='
internal/push/push.go          publish sequence + live-subscription bookkeeping, not counters
internal/portal/middleware.go  request-ID sequence generator
internal/ws/handshake.go       connection sequence generator
'

struct_allow='
internal/push/push.go          HubMetrics holds registered instruments, not a snapshot
internal/cloud/instance.go     simulated host readings the load balancer acts on
'

stats_allow='
internal/cloud/faulty.go                 injected-fault tallies; the cloud package has no registry instruments
internal/ws/conn.go                      per-connection frame counts; the ws package has no registry instruments
internal/timeseries/ops.go               a statistical summary of a series, not counters
internal/cloud/crosscloud/crosscloud.go  providerStats holds registered instruments, not a snapshot
'

# offenders prints the production (non-test) lines outside
# internal/metrics that match the grep pattern $1 in the given paths,
# minus the files of the allowlist $2.
offenders() {
	pattern=$1
	allow=$2
	shift 2
	hits=$(grep -rn "$pattern" --include='*.go' "$@" 2>/dev/null |
		grep -v '_test\.go:' |
		grep -v '^internal/metrics/' || true)
	for path in $(printf '%s\n' "$allow" | awk 'NF {print $1}'); do
		hits=$(printf '%s\n' "$hits" | grep -v "^$path:" || true)
	done
	printf '%s\n' "$hits" | grep . || true
}

status=0

bad=$(offenders 'atomic\.\(Uint64\|Int64\)' "$atomic_allow" internal cmd evop.go)
if [ -n "$bad" ]; then
	echo 'lint-metrics: raw atomic counters outside internal/metrics:' >&2
	printf '%s\n' "$bad" >&2
	echo >&2
	echo 'Use a metrics.Counter / metrics.Gauge from the observatory' >&2
	echo 'registry instead, or (for a genuine non-metric atomic) add the' >&2
	echo 'file to atomic_allow in tools/lint-metrics.sh with a reason.' >&2
	status=1
fi

bad=$(offenders 'type [A-Za-z0-9_]*Metrics struct' "$struct_allow" internal cmd examples evop.go)
if [ -n "$bad" ]; then
	echo 'lint-metrics: hand-built metrics structs outside internal/metrics:' >&2
	printf '%s\n' "$bad" >&2
	echo >&2
	echo 'Register the values as instruments or callback gauges in the' >&2
	echo 'observatory registry instead (/metrics serves its snapshot), or' >&2
	echo 'add the file to struct_allow in tools/lint-metrics.sh with a reason.' >&2
	status=1
fi

bad=$(offenders 'type [A-Za-z0-9_]*Stats struct\|func ([^)]*) Stats()' "$stats_allow" internal cmd examples evop.go)
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
