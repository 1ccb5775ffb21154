#!/usr/bin/env python3
"""Builds perfbench from this checkout's sources and runs one workload.

Run from the root of a peerscope checkout:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 10 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it stamps the
workload identity. Build output reaches standard error only when the build
fails. The build tree is $CARGO_TARGET_DIR, or .bench_build when that is
unset; iterations write their artifacts under <build tree>/scratch and remove
them at the end.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("reproduce", "fullscale", "capture", "faults")
# Each run ends within 180 s; the benchmark process gets what the build
# left of that.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """The git commit when the checkout has one, else a digest of src/."""
    head = os.path.join(".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as f:
                    return f.read().strip()
        else:
            return ref
    digest = hashlib.sha256()
    for base, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir, deadline):
    here = os.path.dirname(os.path.abspath(__file__))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench", "-j", str(len(os.sched_getaffinity(0)))])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step))
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no src/ here: run from the root of a peerscope checkout")

    start = time.monotonic()
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    build(build_dir, start + BUILD_LIMIT_S)

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", os.path.join(build_root, "scratch"),
               "--commit", source_id()]
    remaining = max(args.seconds + 30, RUN_LIMIT_S - (time.monotonic() - start))
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {remaining:.0f} s")
    if done.returncode != 0:
        fail(f"benchmark exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has unexpected keys: " + ", ".join(result))
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
