#!/bin/sh
# Kill-and-resume contract of `peerscope reproduce`: SIGKILL a traced
# batch once its journal holds a finished run, plant the torn flight
# dump such a kill can leave in journal.d, then `--resume` must skip at
# least one journaled run and still write REPORT.md byte for byte.
#
# usage: kill_resume.sh PEERSCOPE GOLDEN_REPORT
# Runs in a fresh mktemp directory, removed on exit.
set -u
peerscope=$1
golden=$2
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT

journaled_ok() {
  grep -q '"state":"ok"' "$dir/experiment.journal" 2>/dev/null
}

"$peerscope" --trace "$dir/trace.json" reproduce --out "$dir/R.md" \
  2>"$dir/first.log" &
pid=$!
i=0
while [ "$i" -lt 1200 ] && ! journaled_ok && kill -0 "$pid" 2>/dev/null; do
  sleep 0.05
  i=$((i + 1))
done
kill -KILL "$pid" 2>/dev/null
wait "$pid" 2>/dev/null
if ! journaled_ok; then
  echo "kill_resume: no run was journaled ok before the kill" >&2
  cat "$dir/first.log" >&2
  exit 1
fi

mkdir -p "$dir/experiment.journal.d"
printf '{"schema": "peerscope.trace/1",\n"traceEvents": [\n{"name": "run.torn' \
  >"$dir/experiment.journal.d/torn-by-sigkill.trace.json"
rm -f "$dir/R.md"

if ! "$peerscope" --trace "$dir/trace.json" reproduce --out "$dir/R.md" \
  --resume 2>"$dir/resume.log"; then
  echo "kill_resume: the resumed batch failed" >&2
  cat "$dir/resume.log" >&2
  exit 1
fi
cat "$dir/resume.log"
if ! grep -q ': skipped$' "$dir/resume.log"; then
  echo "kill_resume: --resume skipped no journaled run" >&2
  exit 1
fi
cmp "$dir/R.md" "$golden"
