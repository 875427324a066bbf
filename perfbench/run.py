#!/usr/bin/env python3
"""Builds the benchmark and runs one workload of it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark binary is built from source
with cargo into $CARGO_TARGET_DIR (default: .bench_build). A `prepare` step
generates the workload's inputs from the seed in a process of its own; the
`run` step then measures for about S seconds and prints the result as the
last line of standard output. Everything else goes to standard error.
Scratch files live under .perfbench/ and are removed afterwards, except the
span file a traced run leaves in .perfbench/traces/.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["rank-seedheavy", "rank-regular", "serve-steady"]
BUILD_TIMEOUT_S = 850
STEP_TIMEOUT_S = 150


def step(argv, timeout, capture=False):
    """Runs one child process to completion; its stdout goes to our stderr
    unless captured."""
    return subprocess.run(
        argv,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        timeout=timeout,
        text=True,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    os.environ["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = step(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(ROOT, target, "release", "mixen-perfbench")

    scratch = os.path.join(ROOT, ".perfbench")
    work = os.path.join(scratch, "work-%d" % os.getpid())
    traces = os.path.join(scratch, "traces")
    os.makedirs(work)
    os.makedirs(traces, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", work]
    try:
        if step([exe, "prepare"] + common, STEP_TIMEOUT_S).returncode != 0:
            print("perfbench: prepare failed", file=sys.stderr)
            return 1
        trace_out = os.path.join(traces, "%s-seed%d.jsonl" % (args.workload, args.seed))
        run = step(
            [exe, "run"] + common
            + ["--seconds", str(args.seconds), "--trace", args.trace, "--trace-out", trace_out],
            STEP_TIMEOUT_S,
            capture=True,
        )
        if run.returncode != 0:
            print("perfbench: run failed", file=sys.stderr)
            return 1
        sys.stdout.write(run.stdout)
        return 0
    except subprocess.TimeoutExpired as e:
        print("perfbench: %s timed out" % e.cmd[1], file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
