#!/usr/bin/env bash
# CLI-level storage chaos sweep — the end-to-end half of the chaos
# matrix (the library-level half is tests/chaos/, `ctest -L chaos`).
#
# Each cell runs the real `peerscope` binary under an injected storage
# fault schedule and asserts the documented outcome:
#
#   cell                           expected exit   invariant checked
#   ---------------------------------------------------------------
#   clean baseline                 0               metrics sidecar complete
#   transient EINTR storm          0               outputs byte-identical
#                                                  to the clean baseline
#   ENOSPC mid-trace               1               failure is loud, the
#                                                  metrics sidecar is still
#                                                  written and counts the
#                                                  injected faults
#   fsync failure + --retries 1    0               supervisor retry recovers
#   bit rot -> analyze             6               strict reader refuses
#   bit rot -> analyze --salvage   0               salvage accounts every
#                                                  dropped record
#   bit rot -> trace-summary       7               foreign/corrupt trace.json
#   malformed --io-faults spec     4               rejected before running
#
# Any other exit code, a missing sidecar, or divergent transient-run
# bytes fails the sweep. It runs as the ctest `chaos.cli_sweep`
# (label `chaos`).
#
# Usage: tools/chaos_sweep.sh PEERSCOPE
# Runs in a fresh mktemp directory, removed on exit.
set -u

PEERSCOPE="$1"
APP=tvants
SEED=1
DURATION=5

if [[ ! -x "${PEERSCOPE}" ]]; then
  echo "chaos-sweep: ${PEERSCOPE} not found (build first)" >&2
  exit 2
fi
OUT="$(mktemp -d)" || exit 2
trap 'rm -rf "${OUT}"' EXIT

FAILURES=0

# run_cell NAME EXPECTED_EXIT CMD... — runs a cell, captures its
# stderr/stdout to $OUT/NAME.log, asserts the exit code and prints the
# log of a cell that missed it.
run_cell() {
  local name="$1" expected="$2"
  shift 2
  local log="${OUT}/${name}.log"
  "$@" >"${log}" 2>&1
  local got=$?
  if [[ "${got}" -ne "${expected}" ]]; then
    echo "FAIL ${name}: exit ${got}, expected ${expected}" >&2
    cat "${log}" >&2
    FAILURES=$((FAILURES + 1))
  else
    echo "ok   ${name}: exit ${got}"
  fi
}

# assert_sidecar NAME PATH KEY... — the metrics sidecar must exist and
# contain every KEY; a faulted run that skips its sidecar is exactly
# the silent-truncation failure mode this sweep exists to catch.
assert_sidecar() {
  local name="$1" path="$2"
  shift 2
  if [[ ! -s "${path}" ]]; then
    echo "FAIL ${name}: metrics sidecar ${path} missing or empty" >&2
    FAILURES=$((FAILURES + 1))
    return
  fi
  local key
  for key in "$@"; do
    if ! grep -q "\"${key}\"" "${path}"; then
      echo "FAIL ${name}: sidecar ${path} lacks ${key}" >&2
      FAILURES=$((FAILURES + 1))
    fi
  done
}

# --- clean baseline -------------------------------------------------
run_cell clean 0 \
  "${PEERSCOPE}" run --app "${APP}" --seed "${SEED}" \
  --duration "${DURATION}" --out "${OUT}/clean" \
  --metrics "${OUT}/clean_metrics.json"
assert_sidecar clean "${OUT}/clean_metrics.json" \
  sim.events_executed trace.binary_files_written
VICTIM="$(cd "${OUT}/clean" && ls *.psct | head -1)"

# --- transient faults are absorbed byte-identically -----------------
run_cell eintr 0 \
  "${PEERSCOPE}" run --app "${APP}" --seed "${SEED}" \
  --duration "${DURATION}" --out "${OUT}/eintr" \
  --io-faults "eintr@4:${VICTIM},short-write@900:${VICTIM}" \
  --metrics "${OUT}/eintr_metrics.json"
assert_sidecar eintr "${OUT}/eintr_metrics.json" \
  io.faults_injected io.eintr_retries io.short_writes
if ! cmp -s "${OUT}/clean/${VICTIM}" "${OUT}/eintr/${VICTIM}"; then
  echo "FAIL eintr: ${VICTIM} diverged from the clean baseline" >&2
  FAILURES=$((FAILURES + 1))
fi

# --- hard ENOSPC: loud failure, sidecar still complete --------------
run_cell enospc 1 \
  "${PEERSCOPE}" run --app "${APP}" --seed "${SEED}" \
  --duration "${DURATION}" --out "${OUT}/enospc" \
  --io-faults "enospc@5000:${VICTIM}" \
  --metrics "${OUT}/enospc_metrics.json"
assert_sidecar enospc "${OUT}/enospc_metrics.json" \
  io.faults_injected io.enospc_failures
if ls "${OUT}/enospc"/*.tmp.* >/dev/null 2>&1; then
  echo "FAIL enospc: temp-file litter left in the capture dir" >&2
  FAILURES=$((FAILURES + 1))
fi

# --- one-shot fsync failure recovered by the supervisor -------------
run_cell fsync-retry 0 \
  "${PEERSCOPE}" run --app "${APP}" --seed "${SEED}" \
  --duration "${DURATION}" --out "${OUT}/fsync-retry" \
  --retries 1 \
  --io-faults "fsync-fail:${VICTIM}" \
  --metrics "${OUT}/fsync_metrics.json"
assert_sidecar fsync-retry "${OUT}/fsync_metrics.json" \
  io.faults_injected io.fsync_failures

# --- bit rot on disk: strict refuses, salvage accounts --------------
cp -r "${OUT}/clean" "${OUT}/bitrot"
printf '\x00\x00\x00\x00' |
  dd of="${OUT}/bitrot/${VICTIM}" bs=1 seek=2000 conv=notrunc status=none
run_cell analyze-strict 6 \
  "${PEERSCOPE}" analyze "${OUT}/bitrot"
run_cell analyze-salvage 0 \
  "${PEERSCOPE}" analyze "${OUT}/bitrot" --salvage
if ! grep -q "^salvage ${VICTIM}:" "${OUT}/analyze-salvage.log"; then
  echo "FAIL analyze-salvage: no accounting line for ${VICTIM}" >&2
  FAILURES=$((FAILURES + 1))
fi

# --- corrupt trace.json profile input -------------------------------
printf 'not a trace\n' > "${OUT}/bad_trace.json"
run_cell trace-summary 7 \
  "${PEERSCOPE}" trace-summary "${OUT}/bad_trace.json"

# --- malformed schedule is rejected up front ------------------------
run_cell bad-spec 4 \
  "${PEERSCOPE}" run --app "${APP}" --seed "${SEED}" --duration 1 \
  --out "${OUT}/bad-spec" --io-faults 'bogus@@'

if [[ "${FAILURES}" -ne 0 ]]; then
  echo "chaos-sweep: ${FAILURES} cell(s) failed" >&2
  exit 1
fi
echo "chaos-sweep: all cells landed on their documented exit codes"
