#!/usr/bin/env python3
"""Build and run one workload of the strt request-stream benchmark.

    python3 strtbench/run.py --workload poll_shared --seed 1 --seconds 15 --trace 0

Run from the repository root.  The script configures and builds
strtbench/ (a CMake project over the repository's src/) into
$CARGO_TARGET_DIR/strtbench, default .bench_build/strtbench, runs the
workload's preparation step and then the measured run, each in its own
process, and relays the measured run's output: its last stdout line is the
result JSON.  Workloads, phases and metrics are described at the top of
strtbench/stream_bench.cpp.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("poll_shared", "explore_distinct", "restart_budget")
ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"strtbench: {message}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, capture=False):
    """Runs cmd; subprocess.run kills and reaps it when it times out."""
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout, text=True,
                              stdout=subprocess.PIPE if capture else sys.stderr,
                              stderr=sys.stderr)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")


def build(build_dir):
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT / "strtbench"), "-B",
                     str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if run(configure, BUILD_TIMEOUT_S).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(build_dir), "--target",
                   "strt_stream_bench", "-j", jobs]
    if run(compile_cmd, BUILD_TIMEOUT_S).returncode != 0:
        fail("build failed")
    return build_dir / "strt_stream_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("src/CMakeLists.txt not found; run from a full checkout")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_root = target if target.is_absolute() else ROOT / target
    # Keep the compiler's temporary files inside the checkout as well.
    tmp = build_root / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    binary = build(build_root / "strtbench")

    scratch = build_root / "strtbench-run" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        prep = run([str(binary), "--prepare", *common, "--scratch",
                    str(scratch)], RUN_TIMEOUT_S, capture=True)
        if prep.returncode != 0:
            fail("workload preparation failed")
        extra = json.loads(prep.stdout.strip().splitlines()[-1])
        measured = run([str(binary), *common, "--seconds", str(args.seconds),
                        "--trace", str(args.trace), *extra],
                       RUN_TIMEOUT_S, capture=True)
        if measured.returncode != 0:
            fail(f"benchmark run failed (exit {measured.returncode})")
        sys.stdout.write(measured.stdout)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main()
