#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <tpch_shift|point_lookup|ingest_skew> \
        --seed <n> --seconds <n> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the engine crates by path. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build), then run with the same
arguments; the traced run also writes its spans, one JSON object per
line, under <target>/perfbench-spans/. The last line of standard output
is the result object. Build output goes to standard error. The exit
status is the benchmark's own: 0 on success, 1 on a failed self-check or
workload error, 2 on a malformed command line.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175


def flag(argv, name):
    """Value following `name` in argv, or None."""
    for i, a in enumerate(argv[:-1]):
        if a == name:
            return argv[i + 1]
    return None


def main(argv):
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(target, "release", "perfbench")] + argv
    if flag(argv, "--trace") == "1":
        name = "{}-{}.jsonl".format(flag(argv, "--workload"), flag(argv, "--seed"))
        cmd += ["--spans-out", os.path.join(target, "perfbench-spans", name)]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded {} s".format(RUN_TIMEOUT_S), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
