#!/usr/bin/env python3
"""Builds the per-layer pipeline benchmark from source and runs it.

Run from the repository root:

    python3 bench_pipeline/run.py --workload paper-alu --seed 1 \
        --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR if set, else .bench_build, relative to
the working directory. Build output goes to stderr; stdout carries only the
benchmark's rows, ending with its JSON result line. See README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-alu", "paper-loops", "server-mix")


def build(build_dir):
    """Configures once, then builds incrementally. Returns the binary path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(build_dir, "pipeline_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--corpus-seed", type=int,
                        help="server-mix GmaGen corpus (default: pinned)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no Denali sources next to bench_pipeline/")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.abspath(build_dir))
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("run.py: build failed: %s" % err)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data", HERE]
    if args.corpus_seed is not None:
        cmd += ["--corpus-seed", str(args.corpus_seed)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
