#!/usr/bin/env python3
"""Builds tycos_bench from source and runs one workload.

Usage, from the root of a full checkout:

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

tycos_bench is built into $CARGO_TARGET_DIR (default .bench_build) as a
target of the root project, to which perfbench/project_hook.cmake adds
this directory's targets; the first run configures and compiles, later
runs only check that the build is current. Build output goes to stderr. The
program's own lines (metrics, host block, checks) are echoed to stdout, and
the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json for --trace 0 and its
per-layer metrics for --trace 1. The exit code is non-zero when the build
fails, a metric is missing, or tycos_bench reports a wrong output.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt: run from the root of a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        # The root project, with perfbench's targets added at its end.
        hook = os.path.abspath(os.path.join("perfbench", "project_hook.cmake"))
        configure = ["cmake", "-S", ".", "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release",
                     f"-DCMAKE_PROJECT_tycos_INCLUDE={hook}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    make = ["cmake", "--build", build_dir, "--target", "tycos_bench",
            "-j", "4"]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "tycos_bench")


def parse(lines):
    metrics, result = {}, None
    for line in lines:
        words = line.split()
        if len(words) >= 4 and words[0] == "metric":
            metrics[words[1]] = (float(words[2]), words[3])
        elif words and words[0] == "result":
            result = dict(w.split("=", 1) for w in words[1:])
    return metrics, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    program = build(build_dir)

    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(build_dir, "out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"tycos_bench did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    for line in lines:
        print(line)
    metrics, result = parse(lines)
    if result is None:
        fail(f"tycos_bench exited {proc.returncode} without a result line")

    wanted = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            fail(f"tycos_bench did not report {m['name']}")
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            fail(f"{m['name']} reported in {unit}, expected {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": result["correct"] == "1",
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": out,
    }))
    return 0 if proc.returncode == 0 and result["correct"] == "1" else 1


if __name__ == "__main__":
    sys.exit(main())
