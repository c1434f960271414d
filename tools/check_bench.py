#!/usr/bin/env python3
"""Throughput regression gate.

Runs a benchmark binary that writes a BENCH_*.json (bench_planner_throughput,
bench_obs_overhead, bench_sim_throughput) — or takes an existing json — and
compares it against the committed conservative baseline. A throughput metric
more than --slack (default 20%) below its baseline floor fails the check.

The baseline floors are deliberately pessimistic (about half of what a loaded
single-core CI box measures) so the gate only trips on real regressions —
e.g. losing the fast-forward path or the incremental scan — not on scheduler
noise.

Usage:
  check_bench.py --bench build/bench/bench_planner_throughput
  check_bench.py --json BENCH_planner.json [--baseline tools/bench_baseline.json]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def load_json(path, what):
    """Read a JSON file, dying with a clear one-line message on any problem."""
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        sys.exit(
            f"error: {what} file '{path}' does not exist — "
            "did the benchmark run and write its output?"
        )
    except json.JSONDecodeError as e:
        sys.exit(f"error: {what} file '{path}' is not valid JSON: {e}")
    except OSError as e:
        sys.exit(f"error: cannot read {what} file '{path}': {e}")


def field(entry, key, context):
    """entry[key], dying with the offending record instead of a KeyError."""
    if key not in entry:
        sys.exit(
            f"error: {context} record is missing key '{key}' "
            f"(record: {json.dumps(entry)}) — benchmark output format changed?"
        )
    return entry[key]


def load_results(args):
    if args.json:
        return load_json(args.json, "results")
    if not args.bench:
        sys.exit("error: need --bench <binary> or --json <results.json>")
    bench = os.path.abspath(args.bench)
    if not os.path.exists(bench):
        sys.exit(f"error: benchmark binary '{bench}' does not exist")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "BENCH_planner.json")
        try:
            subprocess.run([bench, out], check=True)
        except subprocess.CalledProcessError as e:
            sys.exit(f"error: benchmark '{bench}' exited with {e.returncode}")
        return load_json(out, "benchmark output")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", help="bench_planner_throughput binary to run")
    ap.add_argument("--json", help="existing BENCH_planner.json to check")
    ap.add_argument(
        "--baseline",
        default=os.path.join(os.path.dirname(__file__), "bench_baseline.json"),
    )
    ap.add_argument(
        "--slack",
        type=float,
        default=0.20,
        help="allowed fraction below the baseline floor (default 0.20)",
    )
    args = ap.parse_args()

    results = load_results(args)
    baseline = load_json(args.baseline, "baseline")

    failures = []
    checked = 0

    def check(name, measured, floor):
        nonlocal checked
        checked += 1
        limit = floor * (1.0 - args.slack)
        ok = measured >= limit
        print(
            f"{'ok  ' if ok else 'FAIL'} {name}: {measured:.1f} "
            f"(floor {floor:.1f}, limit {limit:.1f})"
        )
        if not ok:
            failures.append(name)

    def check_ceiling(name, measured, ceiling):
        nonlocal checked
        checked += 1
        # Mirror image of check(): the measurement may sit up to --slack
        # above the committed ceiling before the gate trips.
        limit = ceiling * (1.0 + args.slack)
        ok = measured <= limit
        print(
            f"{'ok  ' if ok else 'FAIL'} {name}: {measured:.2f} "
            f"(ceiling {ceiling:.2f}, limit {limit:.2f})"
        )
        if not ok:
            failures.append(name)

    plan_floors = baseline.get("planner_evals_per_sec", {})
    for entry in results.get("planner", []):
        if field(entry, "threads", "planner") != 1:
            continue  # floors are calibrated for the single-thread path
        workload = field(entry, "workload", "planner")
        floor = plan_floors.get(workload)
        if floor is not None:
            check(
                f"planner[{workload}] evals/s",
                field(entry, "evals_per_sec", "planner"),
                floor,
            )

    replay_floor = baseline.get("replay_jobs_per_sec")
    for entry in results.get("replay", []):
        if field(entry, "threads", "replay") == 1 and replay_floor is not None:
            check("replay jobs/s", field(entry, "jobs_per_sec", "replay"), replay_floor)

    obs_entries = {field(e, "mode", "obs"): e for e in results.get("obs", [])}
    off_floor = baseline.get("obs_runs_per_sec_off")
    if off_floor is not None and "off" in obs_entries:
        check(
            "obs[off] runs/s",
            field(obs_entries["off"], "runs_per_sec", "obs"),
            off_floor,
        )
    for mode, ceiling in baseline.get("obs_overhead_max_pct", {}).items():
        if mode in obs_entries:
            check_ceiling(
                f"obs[{mode}] overhead %",
                field(obs_entries[mode], "overhead_pct", "obs"),
                ceiling,
            )

    queue_floors = baseline.get("sim_queue_events_per_sec", {})
    for entry in results.get("queue", []):
        scenario = field(entry, "scenario", "queue")
        floor = queue_floors.get(scenario)
        if floor is not None:
            check(
                f"queue[{scenario}] events/s",
                field(entry, "events_per_sec", "queue"),
                floor,
            )

    engine_floor = baseline.get("engine_events_per_sec")
    for entry in results.get("engine", []):
        # Floors are calibrated for the 1-shard path; multi-shard speedup is
        # informational (CI containers may have a single core).
        if field(entry, "shards", "engine") == 1 and engine_floor is not None:
            check(
                "engine[1 shard] events/s",
                field(entry, "engine_events_per_sec", "engine"),
                engine_floor,
            )

    ereplay_floor = baseline.get("engine_replay_jobs_per_sec")
    for entry in results.get("engine_replay", []):
        if field(entry, "shards", "engine_replay") == 1 and ereplay_floor is not None:
            check(
                "engine_replay[1 shard] jobs/s",
                field(entry, "jobs_per_sec", "engine_replay"),
                ereplay_floor,
            )

    multijob_floors = baseline.get("multijob_min_gain_pct", {})
    for entry in results.get("multijob", []):
        intensity = field(entry, "intensity", "multijob")
        floors = multijob_floors.get(intensity)
        if floors is None:
            continue
        # Deterministic simulated-time gains: the floors gate scheduler
        # behaviour (DelayStage must keep beating the no-delay baseline on
        # mean JCT and p99 slowdown), not machine speed.
        if "jct" in floors:
            check(
                f"multijob[{intensity}] JCT gain %",
                field(entry, "jct_gain_pct", "multijob"),
                floors["jct"],
            )
        if "slowdown" in floors:
            check(
                f"multijob[{intensity}] p99 slowdown gain %",
                field(entry, "slowdown_gain_pct", "multijob"),
                floors["slowdown"],
            )

    service_floors = baseline.get("plan_service_plans_per_sec", {})
    for entry in results.get("plan_service", []):
        mode = field(entry, "mode", "plan_service")
        floor = service_floors.get(mode)
        if floor is not None:
            check(
                f"plan_service[{mode}] plans/s",
                field(entry, "plans_per_sec", "plan_service"),
                floor,
            )
    speedup_floor = baseline.get("plan_service_min_warm_speedup")
    if speedup_floor is not None and "plan_service_warm_speedup" in results:
        check(
            "plan_service warm/cold speedup",
            results["plan_service_warm_speedup"],
            speedup_floor,
        )

    if checked == 0:
        known = (
            "planner",
            "replay",
            "obs",
            "queue",
            "engine",
            "engine_replay",
            "plan_service",
            "multijob",
        )
        present = [k for k in known if results.get(k)]
        sys.exit(
            "error: no metrics matched the baseline — results contain "
            f"section(s) {present or 'none'} but the baseline has no floors "
            "for them (new benchmark? add floors to tools/bench_baseline.json)"
        )
    if failures:
        print(f"\n{len(failures)} metric(s) regressed >"
              f"{100 * args.slack:.0f}% below baseline: {', '.join(failures)}")
        return 1
    print(f"\nall {checked} metrics within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
