#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the root of a source tree:

    python3 perfbench/run.py --workload cold_prepare --seed 1 --seconds 10 --trace 0

The first call configures and builds the library plus the benchmark
binary alem_perfbench (Release) under .bench_build/perfbench; later calls
rebuild incrementally.
Build output goes to stderr. The binary's standard output is passed through
unchanged: its last line is the JSON result. The exit code is the binary's,
or nonzero without a result when the tree cannot be built.
"""

import argparse
import hashlib
import pathlib
import subprocess
import sys

BUILD_DIR = pathlib.Path(".bench_build") / "perfbench"
WORK_DIR = pathlib.Path(".bench_build") / "perfbench-work"
# Compile jobs for the first build; the machine may be shared.
BUILD_JOBS = 4
# A run of the binary is stopped after this long (a run must end within
# 180 s).
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """sha256 over the library and benchmark sources (the tree may not be a
    git checkout, so this stands in for the commit id in the result stamp)."""
    digest = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (root / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def build(root):
    log = sys.stderr
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "alem_perfbench",
         "-j", str(BUILD_JOBS)],
        check=True, stdout=log, stderr=log)
    return BUILD_DIR / "alem_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = pathlib.Path.cwd()
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt"):
        if not (root / needed).is_file():
            fail(f"run from the root of the source tree ({needed} missing)")
    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    print(f"# source sha256={source_digest(root)}", flush=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(WORK_DIR)]
    try:
        completed = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"alem_perfbench exceeded {RUN_TIMEOUT_S} s")
    return completed.returncode


if __name__ == "__main__":
    sys.exit(main())
