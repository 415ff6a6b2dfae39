#!/bin/sh
# lint-knobs: no configuration field that only tests turn.
#
# Every exported field of a …Config, …Options or …Spec struct is a knob:
# it carries a defaulting branch, a validation case and doc text, and it
# widens the set of component interactions the system tests must cover.
# A knob no production caller sets is a constant with extra code; make
# it one. This lint checks every such field declared in non-test
# internal/ code: it must be set — as a keyed literal element "F:" or an
# assignment ".F =" — in some non-test Go file (the benchmark module
# included) other than the one declaring it.
#
# The allowlist is the closed set of knobs kept on purpose, one
# "path Type.Field reason" per line. Additions to it need a review, not
# a reflex. A reason names a ROADMAP item by its title, never by its
# number: items are renumbered when the ROADMAP is re-anchored.
set -eu
cd "$(dirname "$0")/.."

allow='
internal/admission/admission.go Config.MinLimit                the admission tuning the ROADMAP item on whole-system deterministic simulation turns
internal/admission/admission.go Config.MaxLimit                the admission tuning the ROADMAP item on whole-system deterministic simulation turns
internal/admission/admission.go Config.InitialLimit            the admission tuning the ROADMAP item on whole-system deterministic simulation turns
internal/admission/admission.go Config.TargetP95               the admission tuning the ROADMAP item on whole-system deterministic simulation turns
internal/admission/admission.go Config.IncreaseStep            the admission tuning the ROADMAP item on whole-system deterministic simulation turns
internal/admission/admission.go Config.DecreaseFactor          the admission tuning the ROADMAP item on whole-system deterministic simulation turns
internal/admission/admission.go Config.AdaptEvery              the admission tuning the ROADMAP item on whole-system deterministic simulation turns
internal/admission/admission.go Config.QueueDepth              the admission tuning the ROADMAP item on whole-system deterministic simulation turns
internal/admission/admission.go Config.QueueTimeout            the admission tuning the ROADMAP item on whole-system deterministic simulation turns
internal/admission/admission.go Config.RatePerSecond           the admission tuning the ROADMAP item on whole-system deterministic simulation turns
internal/admission/admission.go Config.Burst                   the admission tuning the ROADMAP item on whole-system deterministic simulation turns
internal/admission/admission.go Config.MaxClients              the admission tuning the ROADMAP item on whole-system deterministic simulation turns
internal/admission/admission.go Config.RetryAfter              the admission tuning the ROADMAP item on whole-system deterministic simulation turns
internal/admission/admission.go Config.LiveConnLimit           the admission tuning the ROADMAP item on whole-system deterministic simulation turns
internal/cloud/faulty.go FaultSpec.LaunchErrorRate             fault rates the chaos scenarios and fault experiments tune
internal/cloud/faulty.go FaultSpec.TerminateErrorRate          fault rates the chaos scenarios and fault experiments tune
internal/cloud/faulty.go FaultSpec.GetErrorRate                fault rates the chaos scenarios and fault experiments tune
internal/cloud/faulty.go FaultSpec.SlowCallRate                fault rates the chaos scenarios and fault experiments tune
internal/cloud/faulty.go FaultSpec.SlowCallLatency             fault rates the chaos scenarios and fault experiments tune
internal/cloud/faulty.go FaultSpec.CallTimeout                 fault rates the chaos scenarios and fault experiments tune
internal/core/core.go Config.Faults                            the ROADMAP item on whole-system deterministic simulation injects faults through it
internal/core/core.go Config.Admission                         the ROADMAP item on whole-system deterministic simulation tunes admission through it
internal/resilience/breaker.go BreakerConfig.FailureThreshold  breaker thresholds the breaker and chaos tests tune
internal/resilience/breaker.go BreakerConfig.OpenTimeout       breaker thresholds the breaker and chaos tests tune
internal/resilience/breaker.go BreakerConfig.HalfOpenProbes    breaker thresholds the breaker and chaos tests tune
'

# prodfiles lists every non-test Go file, the benchmark module included.
prodfiles() {
	find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' | sed 's|^\./||' | sort
}

# knobs prints "path<TAB>Type<TAB>Field" for every exported field of a
# …Config, …Options or …Spec struct declared in non-test internal/ code.
knobs() {
	# shellcheck disable=SC2046
	awk '
	FNR == 1 { in_struct = 0 }
	/^type [A-Za-z0-9_]*(Config|Options|Spec)(\[[^]]*\])? struct[ \t]*\{/ {
		typ = $2
		sub(/\[.*/, "", typ)
		in_struct = 1
		next
	}
	in_struct && /^}/ { in_struct = 0; next }
	in_struct && /^\t[A-Z]/ {
		n = split(substr($0, 2), w, /[ \t]+/)
		if (n < 2) next # embedded type
		for (i = 1; i <= n; i++) {
			name = w[i]
			more = name ~ /,$/
			sub(/,$/, "", name)
			printf "%s\t%s\t%s\n", FILENAME, typ, name
			if (!more) break
		}
	}' $(prodfiles | grep '^internal/')
}

# unset_knobs prints "path Type.Field" for every knob set nowhere but
# in its own declaring file.
unset_knobs() {
	files=$(prodfiles)
	knobs | while IFS="$(printf '\t')" read -r path typ field; do
		if ! printf '%s\n' "$files" | grep -vx "$path" |
			xargs grep -lE "(^|[^A-Za-z0-9_.])$field[[:space:]]*:([^=]|\$)|\.$field[[:space:]]*=([^=]|\$)" |
			grep -q .; then
			echo "$path $typ.$field"
		fi
	done
}

found=$(unset_knobs)
allowed=$(printf '%s\n' "$allow" | awk 'NF {print $1 " " $2}')
bad=$(printf '%s\n' "$found" | grep -vxF "$allowed" | grep . || true)
stale=$(printf '%s\n' "$allowed" | grep -vxF "$found" | grep . || true)

if [ -n "$bad" ]; then
	echo 'lint-knobs: option fields no production caller sets:' >&2
	printf '%s\n' "$bad" >&2
	echo >&2
	echo 'Replace each with the constant it defaults to and delete the branch' >&2
	echo 'it selects, or (for a knob kept on purpose) add' >&2
	echo '"path Type.Field reason" to allow in tools/lint-knobs.sh.' >&2
	exit 1
fi
if [ -n "$stale" ]; then
	echo 'lint-knobs: allowlist entries for knobs that are gone or now set:' >&2
	printf '%s\n' "$stale" >&2
	echo 'Delete them from allow in tools/lint-knobs.sh.' >&2
	exit 1
fi
echo 'lint-knobs: ok'
