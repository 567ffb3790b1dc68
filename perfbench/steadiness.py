#!/usr/bin/env python3
"""Steadiness report: run one workload N times and summarise each metric.

Usage (from the root of a checkout):

    python3 perfbench/steadiness.py --workload <name> [--runs 10] [--seed-base 1]
        [--seconds <n>] [--trace 0|1] [--repeat-seed]

Runs `perfbench/run.py` with seeds seed-base, seed-base+1, ... and prints,
for every metric, the median, the quartiles (statistics.quantiles, n=4),
the quartile spread as a share of the median, and the min-max range.
With --trace 0 each spread is compared against a third of the metric's
bound in BENCHMARK.json (setup_s is exempt from the spread rule).
--repeat-seed also reruns the first seed and checks that the simulated
counters digest repeats exactly (tpch_shift and point_lookup).
Exits non-zero if any run fails or any check does not hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("seed {} exited {}:\n{}".format(seed, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    details = dict(l.split(": ", 1) for l in lines[:-1] if ": " in l and not l.startswith("metric "))
    return json.loads(lines[-1]), details


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat-seed", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.seed_base + i
        result, details = run_once(args.workload, seed, seconds, args.trace)
        if not result["correct"] or result["failed"]:
            print("seed {}: correct={} failed={}/{}".format(
                seed, result["correct"], result["failed"], result["attempted"]))
            ok = False
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        if args.repeat_seed and i == 0:
            _, again = run_once(args.workload, seed, seconds, args.trace)
            same = details.get("sim_counters_digest") == again.get("sim_counters_digest")
            print("repeat seed {}: sim_counters_digest {} vs {} -> {}".format(
                seed, details.get("sim_counters_digest"), again.get("sim_counters_digest"),
                "identical" if same else "DIFFERENT"))
            ok = ok and same

    print("{} x{} seconds={} trace={}".format(args.workload, args.runs, seconds, args.trace))
    print("{:<32} {:>12} {:>12} {:>12} {:>8} {:>12} {:>12}  {}".format(
        "metric", "median", "q1", "q3", "iqr/med", "min", "max", "check"))
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / med if med else float("inf")
        check = ""
        if args.trace == 0 and name in bounds:
            limit = bounds[name] / 3
            if name == "setup_s":
                check = "exempt (bound {})".format(bounds[name])
            elif spread < limit:
                check = "ok (< {:.3f})".format(limit)
            else:
                check = "TOO WIDE (>= {:.3f})".format(limit)
                ok = False
        print("{:<32} {:>12.6g} {:>12.6g} {:>12.6g} {:>8.4f} {:>12.6g} {:>12.6g}  {} {}".format(
            name, med, q1, q3, spread, min(vs), max(vs), units[name], check))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
