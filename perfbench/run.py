#!/usr/bin/env python3
"""Builds and runs the relcont benchmark described in BENCHMARK.json.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the `perfbench` package (its own
cargo package in this directory) and the `relcont` CLI in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the benchmark binary.
The binary's last line of standard output is the JSON result; its exit code
is passed through. Extra flags (`--inject-wrong-reference`,
`--inject-slowdown F`) reach the binary unchanged; `selftest.py` uses them.
"""

import os
import subprocess
import sys

BUILDS = [
    ["--manifest-path", "perfbench/Cargo.toml"],
    ["--manifest-path", "Cargo.toml", "-p", "relcont", "--bin", "relcont"],
]


def main():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    for args in BUILDS:
        build = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        if subprocess.run(build, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "perfbench"),
        "--relcont",
        os.path.join(release, "relcont"),
        "--data",
        os.path.join("perfbench", "data"),
    ] + sys.argv[1:]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
