#!/bin/sh
# End-to-end contracts of a supervised `peerscope run`: tracker
# outages with and without a discovery fallback, and a run cut off by
# its --deadline. Each case drives the real binary in a fresh mktemp
# directory, removed on exit, and fails on the first broken
# expectation.
#
# usage: run_contracts.sh CASE PEERSCOPE [PYTHON3]
#   CASE: discovery_fallback | discovery_degraded | deadline_timeout
#   With PYTHON3, Python's json module also loads every trace file,
#   flight dump and journal line the case leaves.
set -u
case_name=$1
peerscope=$2
python=${3:-}
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT

fail() {
  echo "$case_name: $*" >&2
  exit 1
}

# expect CODE CMD... runs CMD with stdout in $dir/out and stderr in
# $dir/err, and fails unless it exits CODE.
expect() {
  want=$1
  shift
  "$@" >"$dir/out" 2>"$dir/err"
  got=$?
  if [ "$got" -ne "$want" ]; then
    cat "$dir/err" >&2
    fail "exit $got, expected $want: $*"
  fi
}

json_docs() {
  [ -z "$python" ] ||
    "$python" -c 'import json, sys; [json.load(open(p)) for p in sys.argv[1:]]' "$@" ||
    fail "not JSON: $*"
}

json_lines() {
  [ -z "$python" ] ||
    "$python" -c 'import json, sys; [json.loads(l) for p in sys.argv[1:] for l in open(p)]' "$@" ||
    fail "not JSON lines: $*"
}

# flight_dump RUN_DIR: sets $dump to the run's one flight-recorder dump.
flight_dump() {
  set -- "$1"/experiment.journal.d/*.trace.json
  [ -f "$1" ] || fail "no flight dump in journal.d"
  dump=$1
  grep -q '"schema": *"peerscope.trace/1"' "$dump" ||
    fail "$dump is not a peerscope.trace/1 document"
}

dump_has() {
  grep -q "\"name\": *\"$1\"" "$dump" || fail "flight dump holds no $1"
}

case $case_name in
discovery_fallback)
  # A tracker outage with a DHT fallback: every probe fails over,
  # re-joins inside the deadline, and the run exits clean with a
  # capture `analyze` reads.
  expect 0 "$peerscope" run --app tvants --duration 60 --out "$dir/run" \
    --discovery tracker --fallback dht --tracker-outage-at 20 \
    --tracker-outage-for 20 --rejoin-deadline 30
  grep -Eq 'discovery: .* [1-9][0-9]* failovers' "$dir/err" ||
    fail "no failovers on stderr"
  grep -Eq ' [1-9][0-9]* tracker failures' "$dir/err" ||
    fail "no tracker failures on stderr"
  json_lines "$dir/run/experiment.journal"
  # The run stored an analyzable capture.
  expect 0 "$peerscope" analyze "$dir/run"
  grep -q 'network awareness' "$dir/out" || fail "capture does not analyze"
  ;;
discovery_degraded)
  # A longer outage without a fallback misses the re-join deadline:
  # exit 8, and the flight dump shows the run span and the verdict.
  expect 8 "$peerscope" --trace "$dir/trace.json" run --app tvants \
    --duration 60 --out "$dir/run" --discovery tracker \
    --tracker-outage-at 10 --tracker-outage-for 50 --rejoin-deadline 5 \
    --churn 6
  grep -q 'discovery degraded' "$dir/err" || fail "no degraded verdict"
  flight_dump "$dir/run"
  dump_has exp.run_failed
  dump_has p2p.discovery.degraded
  dump_has run.TVAnts
  json_docs "$dump" "$dir/trace.json"
  json_lines "$dir/run/experiment.journal"
  ;;
deadline_timeout)
  # A run far longer than its --deadline: the supervisor cancels it,
  # journals it as timed out and spends none of its retries, since a
  # rerun would hit the same deadline. Exit 1, and the flight dump
  # holds the timeout marker and the run span.
  expect 1 "$peerscope" --trace "$dir/trace.json" run --app tvants \
    --seed 7 --duration 36000 --out "$dir/run" --deadline 0.5 --retries 2
  grep -q 'run timed_out after 1 attempt' "$dir/err" ||
    fail "no timeout verdict after one attempt"
  grep -q '"state": *"timed_out"' "$dir/run/experiment.journal" ||
    fail "journal holds no timed_out run"
  flight_dump "$dir/run"
  dump_has exp.run_timed_out
  dump_has run.TVAnts
  json_docs "$dump" "$dir/trace.json"
  json_lines "$dir/run/experiment.journal"
  ;;
*)
  fail "unknown case"
  ;;
esac
