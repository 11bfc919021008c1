#!/usr/bin/env python3
"""Negative self-tests: shows the benchmark fails when it should.

    python3 perfbench/selftest.py [--workload W ...] [--seed N]

For every workload, two runs must fail:

1. `--inject-wrong-reference` flips one reference result; the run must
   report `correct: false` (wrong_results > 0) and exit non-zero.
2. `--inject-slowdown 0.5` stretches every operation by half its own
   duration; compared with the medians in perfbench/baseline.json, at least
   one end-to-end metric must be worse than its bound in BENCHMARK.json.

Exits 0 only if every negative test tripped. Run it from the repository
root after `steady.py --write-baseline` has recorded a baseline.
"""

import argparse
import json
import os
import sys

from steady import HERE, run_once


def violations(bench, baseline, workload, result):
    """End-to-end metrics worse than the baseline median by more than
    their bound, as (name, value, baseline) triples."""
    out = []
    for m in bench["end_to_end"]:
        base = baseline["medians"][workload][m["name"]]
        value = result["metrics"][m["name"]]["value"]
        worse = (value - base) / base if m["better"] == "lower" else (base - value) / base
        if worse > m["bound"]:
            out.append((m["name"], value, base))
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1000)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "baseline.json")) as f:
        baseline = json.load(f)
    seconds = bench["run_seconds"]
    tripped = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        code, result = run_once(workload, args.seed, seconds, ["--inject-wrong-reference"])
        ok = code != 0 and result is not None and not result["correct"]
        tripped &= ok
        print(f"{workload}: flipped reference -> exit {code}, "
              f"correct={result and result['correct']}: {'tripped' if ok else 'NOT TRIPPED'}")

        code, result = run_once(workload, args.seed, seconds, ["--inject-slowdown", "0.5"])
        found = violations(bench, baseline, workload, result) if result else []
        ok = bool(found)
        tripped &= ok
        detail = ", ".join(f"{n} {v:.4g} vs {b:.4g}" for n, v, b in found)
        print(f"{workload}: injected slowdown -> {detail or 'no metric past its bound'}: "
              f"{'tripped' if ok else 'NOT TRIPPED'}")
    return 0 if tripped else 1


if __name__ == "__main__":
    sys.exit(main())
