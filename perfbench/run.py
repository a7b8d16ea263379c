#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Builds the `datalog` CLI and the benchmark harness from source (release
profile, offline), then runs one workload:

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 20 --trace 0

Run it from the repository root. The last line of standard output is the
result object. Build output goes to standard error; generated inputs and
trace dumps go to `.bench_work/`. Workloads, metrics and checks are
described in `perfbench/README.md`.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("oneshot_tb", "hot_read", "mixed_rw", "outcomes_enum")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("Cargo.toml", os.path.join("crates", "cli"), os.path.join("crates", "server")):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"perfbench: {needed} not found; run from the repository root", file=sys.stderr)
            return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "datalog-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "harness", "Cargo.toml")],
    )
    for cmd in builds:
        # Cargo's own output must not reach standard output: the result
        # object has to be its last line.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2

    release = os.path.join(target, "release")
    harness = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--datalog", os.path.join(release, "datalog"),
        "--work", ".bench_work",
    ]
    return subprocess.run(harness).returncode


if __name__ == "__main__":
    sys.exit(main())
