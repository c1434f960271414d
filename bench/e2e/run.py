#!/usr/bin/env python3
"""Build the benchmark and run one workload; print one JSON result line.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--out DIR]

Builds bench/e2e (a standalone Release CMake project over ../../src) into
.bench_build/e2e at the repository root, runs ds_e2e for the workload in its
own process, forwards its `name value unit` lines, and prints as the last
line {"correct", "attempted", "failed", "metrics"} with the end-to-end
metrics of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
Exits non-zero, without a result line, if the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "ds_e2e")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "ds_e2e", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--out", help="directory for the run's files "
                    "(default: .bench_build/out/<workload>)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    out = args.out or os.path.join(ROOT, ".bench_build", "out", args.workload)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--out", out]
    if args.trace:
        cmd.append("--traced")
    stem = args.workload + (".traced" if args.trace else "")
    result_path = os.path.join(out, stem + ".json")
    if os.path.exists(result_path):
        os.remove(result_path)  # never report an earlier run's result
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("ds_e2e did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)

    try:
        with open(result_path) as f:
            result = json.load(f)
    except (OSError, ValueError) as e:
        fail("ds_e2e exited %d without a result: %s" % (proc.returncode, e))
    metrics = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail("ds_e2e did not report " + ", ".join(missing))
    for m in wanted:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail("%s is in %s, BENCHMARK.json says %s"
                 % (m["name"], metrics[m["name"]]["unit"], m["unit"]))
    line = {
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }
    print(json.dumps(line))
    sys.exit(0 if line["correct"] else 1)


if __name__ == "__main__":
    main()
