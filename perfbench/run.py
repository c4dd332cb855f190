#!/usr/bin/env python3
"""Builds and runs the aimsc end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 10 --trace 0

The first run configures and builds the library from ``src/`` plus the
benchmark program into ``.bench_build/`` (Release); later runs rebuild only
what changed.  Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result.  The exit code is the benchmark program's: 0 on success,
non-zero on a build failure, a correctness-gate failure or an invalid run.
"""
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "aimsc_perfbench")
# One run must end within 180 s; keep a margin for the build check.
RUN_TIMEOUT_S = 170


def build():
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    proc = subprocess.Popen([BINARY] + sys.argv[1:], cwd=ROOT,
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
