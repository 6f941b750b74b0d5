#!/usr/bin/env python3
"""Builds and runs the reproduction benchmark (see perfbench/README.md).

From the repo root:

    python3 perfbench/run.py --workload kv-masstree-a --seed 1 --seconds 30 --trace 0

--workload is kv-masstree-a, kv-clht-bfast or all. The package in perfbench/
is configured and built into .bench_build/perfbench (CMake, RelWithDebInfo,
the repo's default build type); build output goes to stderr.
The benchmark's report goes to stdout and its last line is the JSON result.
With --trace 1 the spans are written to
.bench_build/traces/seed<n>-<workload>.json as Chrome trace-event JSON.

Exits non-zero, without a result line, when the build fails (for example when
the repo's src/ is missing); exits non-zero after the result line when an
output check fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# A run ends within --seconds (plus at most a short minimum of rounds), so
# this only catches a hung binary, and keeps a 60 s run under 180 s.
GRACE_SECONDS = 90


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "2"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def git_commit():
    # An exported source tree has no .git (a directory in a clone, a file in
    # a worktree or submodule); git would then report the commit of any
    # repository that happens to enclose the tree.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not build():
        return 2
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [
        os.path.join(BUILD, "perfbench"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--trace-out={os.path.join(trace_dir, f'seed{args.seed}')}",
        f"--git-commit={git_commit()}",
    ]
    # "all" runs the binary's two workloads one after another.
    budget = args.seconds * (2 if args.workload == "all" else 1)
    try:
        r = subprocess.run(cmd, timeout=budget + GRACE_SECONDS)
    except subprocess.TimeoutExpired:
        log("benchmark did not finish in time")
        return 4
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
