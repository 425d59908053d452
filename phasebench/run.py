#!/usr/bin/env python3
"""Build and run the phase-concurrent hash table benchmark.

Usage, from the repository root:

    python3 phasebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds phasebench/ (which compiles the library from src/)
into .bench_build/phasebench with CMake, then runs the benchmark binary with
the same arguments. Build output goes to stderr; the benchmark's stdout is
passed through, and its last line is the JSON result. Exits non-zero, without
a result, if the build or the run fails.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "phasebench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "phasebench", "-j", "4"],
        check=True,
        stdout=sys.stderr,
        env=env,
        timeout=BUILD_TIMEOUT_S,
    )
    return os.path.join(BUILD, "phasebench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    try:
        proc = subprocess.run(
            [binary] + sys.argv[1:],
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except (OSError, subprocess.SubprocessError) as e:
        print(f"run.py: benchmark failed: {e}", file=sys.stderr)
        return 2
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(proc.stdout)
        print(f"run.py: no result (exit code {proc.returncode})", file=sys.stderr)
        return proc.returncode or 2
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
