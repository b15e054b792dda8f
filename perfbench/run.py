#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --table [--seed N] [--seconds S]

Run it from the root of a checkout.  It builds perfbench/perfbench.exe
with dune into .bench_build, then runs one workload; the last line of
standard output is the result JSON (correct, attempted, failed, metrics).
--trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones.

--table runs every workload untraced and traced and prints each metric
group as a table with one row per workload.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
WORKLOADS = ["clean-serial", "edit-loop", "clean-workers"]
BUILD_TIMEOUT_S = 840
# BENCHMARK.json's run_seconds
DEFAULT_SECONDS = 25


def run_timeout(seconds):
    """A run measures for `seconds`, after a set-up of about 12 s and
    before a final check of about 2 s; leave room for a slow machine."""
    return 60 + 3 * seconds


def run(cmd, timeout, stdout):
    """Run cmd in its own process group; on timeout kill the whole group
    (dune's compilers, the benchmark's worker children) and wait."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: {cmd[0]} took longer than {timeout} s")
    return proc.returncode, out


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a checkout of the repository")
    code, _ = run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--cache=disabled",
         "./perfbench/perfbench.exe"],
        BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        sys.exit("perfbench: the build failed")


def measure(workload, seed, seconds, trace, stdout):
    return run(
        [EXE, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        run_timeout(seconds), stdout)


def table(seed, seconds):
    results = {}
    for workload in WORKLOADS:
        metrics = {}
        for trace in (0, 1):
            code, out = measure(workload, seed, seconds, trace, subprocess.PIPE)
            result = json.loads(out.decode().strip().splitlines()[-1])
            if code != 0 or not result["correct"]:
                sys.exit(f"perfbench: {workload} failed its checks")
            metrics.update(result["metrics"])
        results[workload] = metrics
    groups = {}
    for name in results[WORKLOADS[0]]:
        group = name.split(".")[0] if "." in name else "end-to-end"
        groups.setdefault(group, []).append(name)
    for group, names in groups.items():
        print(f"\n{group}")
        print("| workload | " + " | ".join(
            f"{n} ({results[WORKLOADS[0]][n]['unit']})" for n in names) + " |")
        print("|---" * (len(names) + 1) + "|")
        for workload in WORKLOADS:
            print(f"| {workload} | " + " | ".join(
                f"{results[workload][n]['value']:.4g}" for n in names) + " |")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--table", action="store_true")
    args = ap.parse_args()
    if not args.table and args.workload is None:
        ap.error("--workload is required without --table")
    build()
    if args.table:
        table(args.seed, args.seconds)
        return 0
    sys.stdout.flush()
    code, _ = measure(args.workload, args.seed, args.seconds, args.trace, None)
    return code


if __name__ == "__main__":
    sys.exit(main())
