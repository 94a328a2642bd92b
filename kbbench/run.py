#!/usr/bin/env python3
"""Builds and runs the kbrepair benchmark.

    python3 kbbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a kbrepair source tree. It configures and builds
the benchmark package in kbbench/ (a Release build of src/ plus the
kbbench binary) under .bench_build/, runs one workload, and passes the
binary's output through: a report line, then as the last line the result
object {"correct", "attempted", "failed", "metrics"}. The exit code is the
binary's: 0 when every output check passed.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("fig5-scratch", "deep-chase-incremental", "service-mixed")
RUN_TIMEOUT_S = 170


def fail(message):
    print("kbbench: " + message, file=sys.stderr)
    return 2


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build():
    """Configures (once) and builds kbbench; returns the binary path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "kbbench", "kbrepaird"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                return None
    return os.path.join(BUILD_DIR, "kbbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("no kbrepair sources next to " + HERE +
                    "; run from the root of a kbrepair source tree")
    if shutil.which("cmake") is None:
        return fail("cmake not found")

    binary = build()
    if binary is None:
        return fail("build failed (log in .bench_build/build.log)")

    # Relative to the root (the binary's working directory), so the Unix
    # socket paths under it stay short whatever the checkout's path is.
    work_dir = os.path.join(".bench_build", "work", "run-%d" % os.getpid())
    os.makedirs(os.path.join(ROOT, work_dir), exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir, "--commit", git_commit()]
    # Own process group, so a hung run takes its daemon down with it.
    process = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        code = process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        code = fail("run exceeded %d s" % RUN_TIMEOUT_S)
    # Wait for anything left in the group (the daemon of service-mixed).
    for _ in range(500):
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.01)
    shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
