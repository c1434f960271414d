#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark, metric by metric.

    compare.py A_DIR B_DIR
        Compare result sets written by run.sh / run.py --out (A = parent,
        B = change). Runs of the same workload and seed are paired.
    compare.py --spread DIR
        One set: median, quartiles and spread (IQR / median) of each metric.
    compare.py --run A_ROOT B_ROOT [--pairs N] [--seed S] [--workloads W ...]
               [--traced] [--out DIR]
        Run N alternating A/B pairs (A_ROOT and B_ROOT are checkouts holding
        bench/e2e/run.py; pair k uses seed S + k on both sides, and alternates
        which side goes first), then compare them.

Verdicts follow the benchmark's rules. For an end-to-end metric with bound b:
  improved   B wins >= 9/10 of the pairs (ties count for neither) and the
             medians differ by more than A's interquartile distance;
  worse      B's median is worse than A's by more than b;
  unresolved A's own spread (IQR / median) is wider than b, unless every B
             run beats every A run;
  same       otherwise.
Simulated-time metrics (unit sim_s) must be bit-identical per seed: they read
"identical" or "CHANGED". Per-layer metrics have no bound, so they read
improved / worse by the first rule, else same. Standard library only.
"""
import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_set(directory):
    """{(workload, traced): {seed: [result, ...]}} for every result file."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "**", "*.json"),
                                 recursive=True)):
        try:
            with open(path) as f:
                r = json.load(f)
        except ValueError:
            continue
        if not isinstance(r, dict) or "metrics" not in r or "workload" not in r:
            continue
        key = (r["workload"], bool(r.get("traced")))
        runs.setdefault(key, {}).setdefault(r["seed"], []).append(r)
    return runs


def values(results, name):
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / abs(med) if med else 0.0


def pairs_of(a_runs, b_runs, name):
    """(a, b) values of runs with the same seed, matched in run order."""
    out = []
    for seed in sorted(set(a_runs) & set(b_runs)):
        for ra, rb in zip(a_runs[seed], b_runs[seed]):
            if name in ra["metrics"] and name in rb["metrics"]:
                out.append((ra["metrics"][name]["value"],
                            rb["metrics"][name]["value"]))
    return out


def verdict(metric, pairs):
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    if metric["unit"] == "sim_s":
        return "identical" if all(x == y for x, y in pairs) else "CHANGED", 0.0
    sign = 1 if metric["better"] == "higher" else -1
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    win_ratio = wins / len(pairs)
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    gain = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    improved = win_ratio >= 0.9 and gain > 0 and abs(med_b - med_a) > q3 - q1
    bound = metric.get("bound")
    if bound is None:
        lost = sum(1 for x, y in pairs if sign * (y - x) < 0) / len(pairs)
        worse = lost >= 0.9 and gain < 0 and abs(med_b - med_a) > q3 - q1
        return "improved" if improved else "worse" if worse else "same", win_ratio
    if spread(a) > bound:
        every_b_better = (min(b) > max(a)) if sign > 0 else (max(b) < min(a))
        return "improved" if every_b_better else "unresolved", win_ratio
    if improved:
        return "improved", win_ratio
    if gain < -bound:
        return "worse", win_ratio
    return "same", win_ratio


def fmt(x):
    return "%.6g" % x


def compare(a_dir, b_dir):
    spec = load_spec()
    a_set, b_set = load_set(a_dir), load_set(b_dir)
    bad = False
    print("%-10s %-28s %26s %26s %6s  %s" % (
        "workload", "metric", "A q1/median/q3", "B q1/median/q3", "wins",
        "verdict"))
    for traced, metrics in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        for w in [w["name"] for w in spec["workloads"]]:
            a_runs, b_runs = a_set.get((w, traced)), b_set.get((w, traced))
            if not a_runs or not b_runs:
                continue
            for m in metrics:
                pairs = pairs_of(a_runs, b_runs, m["name"])
                if not pairs:
                    continue
                v, win = verdict(m, pairs)
                bad |= v in ("worse", "CHANGED")
                qa = quartiles([x for x, _ in pairs])
                qb = quartiles([y for _, y in pairs])
                print("%-10s %-28s %26s %26s %5.0f%%  %s" % (
                    w, m["name"], "/".join(fmt(x) for x in qa),
                    "/".join(fmt(x) for x in qb), 100 * win, v))
            fa = sum(r["failed"] for rs in a_runs.values() for r in rs)
            fb = sum(r["failed"] for rs in b_runs.values() for r in rs)
            if fa or fb:
                print("%-10s %-28s failed A %d, B %d" % (w, "(checks)", fa, fb))
                bad |= fb > fa
    return 1 if bad else 0


def report_spread(directory):
    spec = load_spec()
    runs = load_set(directory)
    print("%-10s %-28s %5s %36s %8s %8s" % (
        "workload", "metric", "runs", "q1/median/q3", "spread", "bound"))
    for traced, metrics in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        for w in [w["name"] for w in spec["workloads"]]:
            results = [r for rs in runs.get((w, traced), {}).values() for r in rs]
            if not results:
                continue
            for m in metrics:
                v = values(results, m["name"])
                if not v:
                    continue
                bound = m.get("bound")
                print("%-10s %-28s %5d %36s %8.4f %8s" % (
                    w, m["name"], len(v), "/".join(fmt(x) for x in quartiles(v)),
                    spread(v), "-" if bound is None else bound))
    return 0


def run_pairs(args):
    spec = load_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    roots = {"A": os.path.abspath(args.run[0]), "B": os.path.abspath(args.run[1])}
    traces = (0, 1) if args.traced else (0,)
    for k in range(args.pairs):
        order = ("A", "B") if k % 2 == 0 else ("B", "A")
        for w in workloads:
            for trace in traces:
                for side in order:
                    out = os.path.join(args.out, side, "pair%d" % k)
                    cmd = [sys.executable,
                           os.path.join(roots[side], "bench", "e2e", "run.py"),
                           "--workload", w, "--seed", str(args.seed + k),
                           "--seconds", str(spec["run_seconds"]),
                           "--trace", str(trace), "--out", out]
                    print("pair %d %s %s trace=%d" % (k, side, w, trace),
                          file=sys.stderr)
                    subprocess.run(cmd, cwd=roots[side], stdout=subprocess.DEVNULL)
    return compare(os.path.join(args.out, "A"), os.path.join(args.out, "B"))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    ap.add_argument("dirs", nargs="*")
    ap.add_argument("--spread", metavar="DIR")
    ap.add_argument("--run", nargs=2, metavar=("A_ROOT", "B_ROOT"))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", default=os.path.join(HERE, "results", "ab"))
    args = ap.parse_args()
    if args.spread:
        return report_spread(args.spread)
    if args.run:
        return run_pairs(args)
    if len(args.dirs) != 2:
        ap.error("give two result directories, --spread DIR, or --run A B")
    return compare(*args.dirs)


if __name__ == "__main__":
    sys.exit(main())
