#!/bin/sh
# lint-api: one entry point per operation, and none that only tests call.
#
# A public name that only fills in a default for another one — a
# background context, a nil registry, a zero Options{} — is a second
# entry point every reader, test and doc must keep in sync. This lint
# rejects the two shapes such twins take in production (non-test) code:
#
#   - F beside FContext: the same function or method (same receiver
#     type, same package) with and without a leading context argument.
#     Keep FContext and move F's callers onto it.
#   - NewX beside NewXWith…: a constructor beside its configurable
#     variant. Keep one NewX taking every input and pass nil or the zero
#     value where the default fits.
#
# An exported function no production code calls is the same cost with
# no entry point behind it. Every exported func or method declared in
# non-test internal/ code must appear, as a word, in some non-test Go
# file with its comments stripped (cmd/, examples/, the root package and
# the benchmark module perfbench/ included), outside a declaration of
# that name. The match is by name only, so a common name such as String
# passes on its own. The root evop.go façade is the module's public API
# and is not checked.
#
# Only exported names are checked. Each check has an allowlist, the
# closed set of legitimate exceptions, one "path name reason" per line:
# twins are keyed by the shorter twin, uncalled functions by Name or
# Type.Name. A name the check no longer finds must leave its list.
# Additions need a review, not a reflex. A reason names a ROADMAP item
# by its title, never by its number: items are renumbered when the
# ROADMAP is re-anchored.
set -eu
cd "$(dirname "$0")/.."

allow_twins='
internal/core/core.go RunModelCached  the benchmark module (perfbench/) calls it by name
'

allow_uncalled='
internal/broker/broker.go Broker.LiveCount                       the portal pipeline tests and the root benchmarks count leaked sessions with it
internal/catchment/dem.go DefaultTerrain                         the root benchmarks build their DEM from it
internal/catchment/dem.go cellHeap.Less                          heap.Interface: container/heap calls it
internal/catchment/dem.go cellHeap.Swap                          heap.Interface: container/heap calls it
internal/clock/clock.go timerHeap.Less                           heap.Interface: container/heap calls it
internal/clock/clock.go timerHeap.Swap                           heap.Interface: container/heap calls it
internal/clock/clock.go Simulated.PendingTimers                  tests in admission, loadbalancer and sensor wait on it for a goroutine to arm its timer
internal/cloud/crosscloud/crosscloud.go Multi.Providers          the core and portal tests walk the registered providers with it
internal/cloud/faulty.go FaultyProvider.Inner                    the core tests check which provider each fault wrapper wraps with it
internal/cloud/faulty.go FaultyProvider.ScheduleOutage           the core and load-balancer chaos tests schedule control-plane outages with it
internal/cloud/faulty.go FaultyProvider.SetErrorRates            the load-balancer chaos and crosscloud tests break and heal providers mid-run with it
internal/cloud/instance.go Instance.ProviderName                 the crosscloud tests count placements per provider with it
internal/geo/geo.go FeatureCollection.MarshalJSON                json.Marshaler: encoding/json calls it
internal/geo/geo.go FeatureCollection.UnmarshalJSON              json.Unmarshaler: encoding/json calls it
internal/hydro/calibrate/objectives.go KGE                       an objective DESIGN.md and README name
internal/hydro/calibrate/objectives.go LogNSE                    an objective the README names
internal/hydro/calibrate/objectives.go NegRMSE                   the RMSE objective DESIGN.md names
internal/hydro/hydro.go MassBalance.Closure                      the mass-balance oracle of the hydro and topmodel tests
internal/hydro/pet/pet.go Hamon                                  the Hamon PET method DESIGN.md and README name
internal/ogc/wps/wps.go Value.MarshalJSON                        json.Marshaler: encoding/json calls it
internal/timeseries/encode.go Series.MarshalJSON                 json.Marshaler: encoding/json calls it
internal/timeseries/encode.go Series.UnmarshalJSON               json.Unmarshaler: encoding/json calls it
internal/timeseries/series.go MustNew                            tests in eight other packages build literal series with it
'

# decls prints "dir<TAB>recv<TAB>name<TAB>file:line" for every exported
# top-level func and method declaration in the production Go files.
decls() {
	files=$(find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.git/*' | sed 's|^\./||' | sort)
	# shellcheck disable=SC2086
	awk '
	/^func / {
		rest = substr($0, 6)
		recv = ""
		if (rest ~ /^\(/) {
			close_at = index(rest, ")")
			n = split(substr(rest, 2, close_at - 2), part, " ")
			recv = part[n]
			gsub(/\*/, "", recv)
			sub(/\[.*/, "", recv)
			rest = substr(rest, close_at + 2)
		}
		if (!match(rest, /^[A-Z][A-Za-z0-9_]*/)) next
		dir = FILENAME
		sub(/\/[^\/]*$/, "", dir)
		if (dir == FILENAME) dir = "."
		printf "%s\t%s\t%s\t%s:%d\n", dir, recv, substr(rest, 1, RLENGTH), FILENAME, FNR
	}' $files
}

# twins prints "path name<TAB>file:line name (twin of …)" for every
# short twin found.
twins() {
	decls | awk -F '\t' '
	{ key[$1 SUBSEP $2 SUBSEP $3] = $4; row[NR] = $0 }
	function found(loc, base, name,    path) {
		path = loc
		sub(/:[0-9]+$/, "", path)
		printf "%s %s\t%s %s (twin of %s)\n", path, base, loc, base, name
	}
	END {
		for (i = 1; i <= NR; i++) {
			split(row[i], f, "\t")
			name = f[3]
			if (name ~ /.Context$/) {
				base = substr(name, 1, length(name) - 7)
				k = f[1] SUBSEP f[2] SUBSEP base
				if (k in key) found(key[k], base, name)
			}
			if (f[2] == "" && match(name, /^New[A-Za-z0-9_]*With[A-Z]/)) {
				base = substr(name, 1, RLENGTH - 5)
				k = f[1] SUBSEP "" SUBSEP base
				if (k in key) found(key[k], base, name)
			}
		}
	}' | sort
}

# words prints every exported word of the non-test Go files, the
# benchmark module included, with comments stripped and without the name
# a func line declares. String and rune literals are skipped over only
# so that a "//" inside one does not start a comment.
words() {
	files=$(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' | sed 's|^\./||' | sort)
	# shellcheck disable=SC2086
	awk '
	FNR == 1 { blk = 0; raw = 0 }
	{
		line = $0; out = ""; i = 1; n = length(line)
		while (i <= n) {
			if (blk) {
				j = index(substr(line, i), "*/")
				if (!j) break
				i += j + 1; blk = 0; out = out " "
				continue
			}
			if (raw) {
				j = index(substr(line, i), "`")
				if (!j) { out = out substr(line, i); break }
				out = out substr(line, i, j); i += j; raw = 0
				continue
			}
			c = substr(line, i, 1)
			if (c == "/" && substr(line, i + 1, 1) == "/") break
			if (c == "/" && substr(line, i + 1, 1) == "*") { blk = 1; i += 2; continue }
			if (c == "`") { raw = 1; out = out c; i++; continue }
			if (c == "\"" || c == "\047") {
				out = out c; i++
				while (i <= n) {
					d = substr(line, i, 1)
					if (d == "\\") { out = out substr(line, i, 2); i += 2; continue }
					out = out d; i++
					if (d == c) break
				}
				continue
			}
			out = out c; i++
		}
		decl = ""
		if (out ~ /^func /) {
			rest = substr(out, 6)
			if (rest ~ /^\(/) rest = substr(rest, index(rest, ")") + 2)
			if (match(rest, /^[A-Z][A-Za-z0-9_]*/)) decl = substr(rest, 1, RLENGTH)
		}
		while (match(out, /[A-Za-z0-9_]+/)) {
			w = substr(out, RSTART, RLENGTH)
			out = substr(out, RSTART + RLENGTH)
			if (w !~ /^[A-Z]/) continue
			if (w == decl) { decl = ""; continue }
			print w
		}
	}' $files
}

# uncalled prints "path name<TAB>file:line name" for every exported func
# or method declared in non-test internal/ code whose name words never
# prints; a method's name is Type.Name.
uncalled() {
	{
		words | sort -u | sed 's/^/=\t/'
		decls
	} | awk -F '\t' '
	$1 == "=" { used[$2] = 1; next }
	$1 ~ /^internal(\/|$)/ && !($3 in used) {
		name = ($2 == "" ? "" : $2 ".") $3
		path = $4
		sub(/:[0-9]+$/, "", path)
		printf "%s %s\t%s %s\n", path, name, $4, name
	}' | sort
}

# against compares the entries found ("path name<TAB>detail" lines on
# stdin) with the allowlist in $1 ("path name reason" lines). It prints
# "unlisted<TAB>detail" for each entry the allowlist does not name, and
# "stale<TAB>path name" for each allowlist line that matches no entry.
against() {
	ALLOW=$1 awk -F '\t' '
	NF { found[$1] = $2 }
	END {
		n = split(ENVIRON["ALLOW"], line, "\n")
		for (i = 1; i <= n; i++) {
			if (split(line[i], w, " ") < 2) continue
			k = w[1] " " w[2]
			listed[k] = 1
			if (!(k in found)) printf "stale\t%s\n", k
		}
		for (k in found) if (!(k in listed)) printf "unlisted\t%s\n", found[k]
	}' | sort
}

# pick prints the entries of kind $1 from report $2.
pick() {
	printf '%s\n' "$2" | awk -F '\t' -v kind="$1" '$1 == kind { print $2 }'
}

twin_report=$(twins | against "$allow_twins")
uncalled_report=$(uncalled | against "$allow_uncalled")
fail=0

bad=$(pick unlisted "$twin_report")
if [ -n "$bad" ]; then
	echo 'lint-api: duplicate entry points (F beside FContext, NewX beside NewXWith...):' >&2
	printf '%s\n' "$bad" >&2
	echo >&2
	echo 'Keep the entry point that takes every input, move the callers of' >&2
	echo 'the twin onto it and delete the twin, or (for a genuine exception)' >&2
	echo 'add "path name reason" to allow_twins in tools/lint-api.sh.' >&2
	fail=1
fi

bad=$(pick unlisted "$uncalled_report")
if [ -n "$bad" ]; then
	echo 'lint-api: exported functions no production code calls:' >&2
	printf '%s\n' "$bad" >&2
	echo >&2
	echo 'Delete each with the tests that only cover it, move a test oracle' >&2
	echo 'or hook into a _test.go file of its package, or (for a name kept on' >&2
	echo 'purpose) add "path name reason" to allow_uncalled in tools/lint-api.sh.' >&2
	fail=1
fi

stale=$(
	pick stale "$twin_report" | sed 's/^/allow_twins: /'
	pick stale "$uncalled_report" | sed 's/^/allow_uncalled: /'
)
if [ -n "$stale" ]; then
	echo 'lint-api: allowlist entries for names that are gone, or no longer a twin or uncalled:' >&2
	printf '%s\n' "$stale" >&2
	echo 'Delete them from tools/lint-api.sh.' >&2
	fail=1
fi

[ "$fail" -eq 0 ] || exit 1
echo 'lint-api: ok'
