#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

    python3 servebench/run.py --workload mlp_serve --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The first call configures and builds
servebench/ (which compiles the repository's src/ libraries) into
.bench_build/, or into $CARGO_TARGET_DIR when that is set; later calls
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. The exit code is the benchmark's,
or non-zero when the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            shutil.rmtree(out, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", out, "--target", "servebench", "-j", jobs]
    return subprocess.call(cmd, stdout=sys.stderr) == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["mlp_serve", "decode_long", "mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    out = build_dir()
    if not build(out):
        print("servebench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(out, "servebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", out]
    sys.stdout.flush()
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
