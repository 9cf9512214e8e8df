#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload url_enum --seed 1 --seconds 10 --trace 0

Every run configures and builds perfbench/ (which compiles the library from
src/) into .bench_build/perfbench; after the first run only what changed is
rebuilt.
The benchmark binary's stdout is passed through only when it exits cleanly
and its last line is a well-formed result, so a failed run prints no result.
With --trace 1 the recorded spans go to .bench_build/traces/<workload>.tsv.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("url_enum", "cloze_suite", "gen_streams")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group
    (make and compiler children included) and waits for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(bench_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", bench_dir, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "relm_perfbench",
              "-j", jobs]]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        remaining = deadline - time.monotonic()
        try:
            code, _ = run_group(cmd, max(1.0, remaining), stdout=sys.stderr,
                                stderr=sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {cmd[:2]} did not finish: {err}")
        if code != 0:
            fail(f"build step {' '.join(cmd)} exited with {code}")


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and set(result) == RESULT_KEYS
            and isinstance(result["metrics"], dict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {root}/src")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    build(bench_dir, build_dir)

    cmd = [os.path.join(build_dir, "relm_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(root, ".bench_build", "traces",
                             f"{args.workload}.tsv")]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, cwd=root,
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"benchmark did not finish: {err}")
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not valid_result(lines[-1]):
        sys.stderr.write(out)
        fail(f"benchmark exited with {code} without a result")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
