#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports how steady it is.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload W ...]
                                [--write-baseline]

For every workload and end-to-end metric it prints the median of the runs
and the spread: the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
the metric's bound from BENCHMARK.json. `--write-baseline` stores the
medians and spreads of the measured workloads in perfbench/baseline.json
(keeping the other workloads' entries), which selftest.py reads.
Run it from the repository root.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, extra=()):
    """One benchmark run; returns (exit code, parsed JSON result or None)."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", *extra]
    proc = subprocess.run(command, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    baseline = {"nproc": os.cpu_count(), "machine": platform.machine(),
                "runs": args.runs, "seconds": bench["run_seconds"],
                "first_seed": {}, "medians": {}, "spreads": {}}
    steady = True
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(args.runs):
            code, result = run_once(workload, args.first_seed + i, bench["run_seconds"])
            if code != 0 or not result or not result["correct"]:
                print(f"{workload} seed {args.first_seed + i}: run failed (exit {code})")
                return 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {args.first_seed + i}: " + ", ".join(
                f"{name} {vals[-1]:.4g}" for name, vals in values.items()), flush=True)
        baseline["first_seed"][workload] = args.first_seed
        baseline["medians"][workload] = {}
        baseline["spreads"][workload] = {}
        for m in bench["end_to_end"]:
            name, vals = m["name"], values[m["name"]]
            s = spread(vals)
            med = statistics.median(vals)
            baseline["medians"][workload][name] = med
            baseline["spreads"][workload][name] = round(s, 3)
            ok = s < m["bound"] / 3
            steady &= ok
            print(f"{workload:14s} {name:15s} median {med:12.4f} {m['unit']:5s} "
                  f"spread {s:6.3f} bound {m['bound']:.2f} {'ok' if ok else 'WIDE'}")
    if args.write_baseline:
        path = os.path.join(HERE, "baseline.json")
        if os.path.exists(path):
            with open(path) as f:
                old = json.load(f)
            for key in ("first_seed", "medians", "spreads"):
                if isinstance(old.get(key), dict):
                    baseline[key] = {**old[key], **baseline[key]}
        with open(path, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
