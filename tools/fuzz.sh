#!/bin/sh
# fuzz: run every fuzzer in the tree on fresh mutations, one after the
# other, for the given time each. ci.sh's fuzz smoke tier and `make fuzz`
# both run this list, so it is the only place a fuzzer is listed.
#
#   tools/fuzz.sh [fuzztime]    time per fuzzer (default 10s)
#
# Each line below is "fuzzer package [extra go test flags]"; go test
# takes one -fuzz pattern per run, and it must match exactly one fuzzer.
set -eu
cd "$(dirname "$0")/.."
fuzztime=${1:-10s}

while read -r name pkg flags; do
	case $name in '' | '#'*) continue ;; esac
	# shellcheck disable=SC2086
	go test -fuzz="^$name\$" -fuzztime "$fuzztime" $flags "$pkg" </dev/null
done <<'LIST'
FuzzReadFrame ./internal/ws
FuzzParseDataInputs ./internal/ogc/wps
FuzzParseExecuteDocument ./internal/ogc/wps
# Differential: the appended ExecuteResponse equals what encoding/xml
# wrote for the same document (the old encoder is kept in the test), for
# arbitrary literals and a series output passed through FlotJSON. Nine
# strings take long to minimize, hence the cap.
FuzzExecuteResponse ./internal/ogc/wps -fuzzminimizetime=50x
# WPS KVP fuzzer: raw /wps query strings, names in several spellings,
# never answer 5xx, and three repeats of a query answer the same bytes.
FuzzWPSKVP ./internal/ogc/wps
# Workflow definitions: raw POST bodies never answer 5xx; every 200 run
# reads back byte-identical, replays, and fingerprints each node's typed
# outputs as the same outputs in text would.
FuzzWorkflowDefinition ./internal/workflow
# Differential: the InsertObservation fast path answers every body
# exactly as the encoding/xml handler kept in the test does, and leaves
# the same stored reading.
FuzzInsertObservation ./internal/ogc/sos
FuzzParseFlotJSON ./internal/timeseries
# Differential: the Flot encoder must emit valid JSON for any float64 bit
# pattern, round-trip finite values bit-exactly and match the reference
# json.Marshal encoder wherever that one can encode.
FuzzFlotEncode ./internal/timeseries
# Differential: the shortest-float kernel must append exactly strconv's
# 'g' shortest form for any float64 bit pattern.
FuzzAppendShortest ./internal/timeseries
FuzzReadCSV ./internal/timeseries
# Differential: the rollup index must agree with the naive scan for
# arbitrary ingest orders, cadences and query windows.
FuzzRollupVsNaive ./internal/timeseries
# Differential: Downsample picks bit-identically the observations of the
# three-pass reference kept in the test, NaNs and equal stamps included.
FuzzDownsample ./internal/timeseries
# Portal query fuzzer: raw from/to/step/agg/points on the healthy and the
# degraded series path never answer 5xx, and an aggregate or degraded
# answer stays within the bucket cap. Minimizing a new input of five
# strings may use the default 60 s, the whole budget and more; 50 tries
# per input leave the time to fresh mutations.
FuzzSeriesQuery ./internal/portal -fuzzminimizetime=50x
# Run-request fuzzer: raw /widgets/model/run bodies never answer 5xx,
# and every 200 is valid JSON; failed runs go through the pooled kernel
# scratch too.
FuzzRunRequest ./internal/portal
# Live-topics fuzzer: raw ?topics= lists on GET /ws/live, sent without
# upgrade headers, never answer 5xx; a bad topic answers 400 naming it,
# and no hub subscription outlives the refused upgrade.
FuzzLiveTopics ./internal/portal
# SOS KVP fuzzer: raw service/request/procedure/from/to values on GET
# /sos never answer 5xx, every 200 is well-formed XML, and a 304 answers
# only an If-None-Match that lists the response's ETag.
FuzzSOSQuery ./internal/portal
# Upload fuzzer: raw CSV bodies on POST /datasets/upload never answer
# 5xx, and a 200 names a stored dataset holding the reported samples.
FuzzDatasetUpload ./internal/portal
# Token-bucket invariant fuzzer: client table stays LRU-bounded and every
# bucket, started from token counts the input picks, stays within
# [0, burst] for arbitrary op/advance streams.
FuzzTokenBucket ./internal/admission
LIST
