#!/bin/sh
# End-to-end contracts of a supervised `peerscope run`: tracker
# outages with and without a discovery fallback, the live status file
# and `watch`, the PSTS series sidecar and `timeline`, and the SLO
# watchdog. Each case drives the real binary in a fresh mktemp
# directory, removed on exit, and fails on the first broken
# expectation.
#
# usage: run_contracts.sh CASE PEERSCOPE [PYTHON3]
#   CASE: discovery_fallback | discovery_degraded | watch_status |
#         timeline_deterministic | timeline_salvage | slo_violation
#   With PYTHON3, Python's json module also loads every status
#   document, trace file, flight dump and journal line the case leaves.
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

# series NAME: a seeded 60 s TVAnts run that writes $dir/NAME.
series() {
  expect 0 "$peerscope" --series "$dir/$1" --series-interval 5 \
    run --app tvants --seed 7 --duration 60 --out "$dir/$1.run"
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
watch_status)
  # A series + status run, then one `watch` snapshot of its final state.
  expect 0 "$peerscope" --series "$dir/run.psts" --series-interval 5 \
    run --app tvants --seed 7 --duration 60 --out "$dir/run" \
    --watch-status "$dir/status.json"
  grep -q "series: wrote $dir/run.psts" "$dir/err" || fail "no series line"
  expect 0 "$peerscope" watch --once "$dir/status.json"
  grep -q '^phase: done' "$dir/out" || fail "watch shows no done phase"
  grep -q '| *ok *|' "$dir/out" || fail "watch shows no ok run"
  json_docs "$dir/status.json"
  json_lines "$dir/run/experiment.journal"
  ;;
timeline_deterministic)
  # A strict read, the CSV header, and the same deterministic rendering
  # across a rerun of the same seed.
  series a.psts
  expect 0 "$peerscope" timeline "$dir/a.psts"
  grep -q 'p2p.chunks_delivered' "$dir/out" || fail "no delivery rows"
  expect 0 "$peerscope" timeline --csv "$dir/a.psts"
  head -n 1 "$dir/out" | grep -q '^run,index,at_ns,metric' ||
    fail "no CSV header"
  expect 0 "$peerscope" timeline --deterministic "$dir/a.psts"
  mv "$dir/out" "$dir/a.txt"
  series b.psts
  expect 0 "$peerscope" timeline --deterministic "$dir/b.psts"
  cmp "$dir/a.txt" "$dir/out" || fail "reruns render differently"
  ;;
timeline_salvage)
  # One corrupted byte: the strict read exits 7, the salvage read
  # exits 0 and accounts for what it dropped.
  series run.psts
  size=$(wc -c <"$dir/run.psts")
  printf '\377' | dd of="$dir/run.psts" bs=1 seek=$((size - 10)) \
    conv=notrunc 2>/dev/null
  expect 7 "$peerscope" timeline "$dir/run.psts"
  expect 0 "$peerscope" timeline --salvage "$dir/run.psts"
  grep -q 'salvage: dropped [1-9][0-9]* damaged record' "$dir/err" ||
    fail "no salvage accounting"
  grep -q 'p2p.chunks_delivered' "$dir/out" || fail "nothing recovered"
  ;;
slo_violation)
  # An unreachable events/s floor: the watchdog cancels the run, which
  # exits 10 and leaves a flight dump that holds the verdict.
  expect 10 "$peerscope" --trace "$dir/trace.json" run --app tvants \
    --seed 7 --duration 36000 --out "$dir/run" --slo-events-floor 1e15 \
    --watch-status "$dir/status.json"
  grep -q 'slo violation: .*below floor' "$dir/err" || fail "no SLO verdict"
  flight_dump "$dir/run"
  dump_has exp.run_failed
  dump_has watchdog.slo_violation
  json_docs "$dump" "$dir/trace.json" "$dir/status.json"
  json_lines "$dir/run/experiment.journal"
  ;;
*)
  fail "unknown case"
  ;;
esac
