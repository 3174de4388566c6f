#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep|suite_cold|suite_warm \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

The first run configures and builds perfbench/ (a CMake package that
compiles ../src and the suite entry points from ../bench) in Release mode
under $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
only check the build is current. Build output goes to stderr. The binary's
stdout is passed through; its last line is the JSON result. Scratch files
(cache directories, span logs) go under the same build directory.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(build_root):
    """Configures (once) and builds the perfbench binary; returns its path."""
    binary_dir = os.path.join(build_root, "perfbench")
    configured = any(os.path.exists(os.path.join(binary_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", binary_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", binary_dir, "--target", "perfbench",
                    "--parallel", "4"], check=True, stdout=sys.stderr)
    return os.path.join(binary_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "suite_cold", "suite_warm"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_root)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_root, "perfbench-work", args.workload)
    proc = subprocess.run(
        [binary, f"--workload={args.workload}", f"--seed={args.seed}",
         f"--seconds={args.seconds}", f"--trace={args.trace}",
         f"--work-dir={work_dir}", f"--size={args.size}"],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: exited with status {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("\n".join(lines[:-1]))
        print("perfbench: last line is not a result object", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
