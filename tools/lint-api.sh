#!/bin/sh
# lint-api: one entry point per operation.
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
# Only exported names are checked. The allowlist is the closed set of
# legitimate exceptions, one "path name reason" per line, keyed by the
# shorter twin. Additions to it need a review, not a reflex.
set -eu
cd "$(dirname "$0")/.."

allow='
internal/core/core.go RunModelCached  the benchmark module (perfbench/) calls it by name
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

# twins prints "file:line name (twin)" for every short twin found.
twins() {
	decls | awk -F '\t' '
	{ key[$1 SUBSEP $2 SUBSEP $3] = $4; row[NR] = $0 }
	END {
		for (i = 1; i <= NR; i++) {
			split(row[i], f, "\t")
			name = f[3]
			if (name ~ /.Context$/) {
				base = substr(name, 1, length(name) - 7)
				k = f[1] SUBSEP f[2] SUBSEP base
				if (k in key) printf "%s %s (twin of %s)\n", key[k], base, name
			}
			if (f[2] == "" && match(name, /^New[A-Za-z0-9_]*With[A-Z]/)) {
				base = substr(name, 1, RLENGTH - 5)
				k = f[1] SUBSEP "" SUBSEP base
				if (k in key) printf "%s %s (twin of %s)\n", key[k], base, name
			}
		}
	}' | sort
}

bad=$(twins)
for pair in $(printf '%s\n' "$allow" | awk 'NF {print $1 "|" $2}'); do
	path=${pair%|*}
	name=${pair#*|}
	bad=$(printf '%s\n' "$bad" | grep -v "^$path:[0-9]* $name " || true)
done
bad=$(printf '%s\n' "$bad" | grep . || true)

if [ -n "$bad" ]; then
	echo 'lint-api: duplicate entry points (F beside FContext, NewX beside NewXWith...):' >&2
	printf '%s\n' "$bad" >&2
	echo >&2
	echo 'Keep the entry point that takes every input, move the callers of' >&2
	echo 'the twin onto it and delete the twin, or (for a genuine exception)' >&2
	echo 'add "path name reason" to allow in tools/lint-api.sh.' >&2
	exit 1
fi
echo 'lint-api: ok'
