#!/usr/bin/env python3
"""Builds the turbdb benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 30

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the checkout root). The last line of standard output is the JSON
result object printed by perfbench; build output goes to standard
error. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("cold_sweep", "hot_explore", "service_mix")
BUILD_TIMEOUT_S = 840
# Time allowed around the measured loop for set-ups, reference answers,
# post-loop ingests and the traced replay.
RUN_ALLOWANCE_S = 140


def fail(message, code=3):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configures (once) and builds the measuring program and turbdb_node."""
    started = time.monotonic()
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr, check=True,
            timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    remaining = BUILD_TIMEOUT_S - (time.monotonic() - started)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "perfbench", "turbdb_node"],
        stdout=sys.stderr, stderr=sys.stderr, check=True,
        timeout=max(1.0, remaining))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data-seed", type=int, default=None)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"no turbdb sources: {os.path.join(root, needed)} is missing")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    try:
        build(root, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        fail(f"build failed: {error}")

    work_dir = os.path.join(build_dir, f"run-{os.getpid()}")
    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", work_dir,
        "--out-dir", os.path.join(build_dir, "results"),
    ]
    if args.data_seed is not None:
        command += ["--data-seed", str(args.data_seed)]

    # The measuring program runs in its own process group so that a timeout
    # or a signal to this script takes it down with its forked nodes.
    child = subprocess.Popen(command, start_new_session=True)

    def stop_child(signum=None, frame=None):
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        if signum is not None:
            sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)
    run_timeout_s = RUN_ALLOWANCE_S + args.seconds
    try:
        code = child.wait(timeout=run_timeout_s)
    except subprocess.TimeoutExpired:
        stop_child()
        fail(f"{args.workload} did not finish within {run_timeout_s:g} s", 4)
    shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
