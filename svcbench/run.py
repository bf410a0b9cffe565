#!/usr/bin/env python3
"""Build the service benchmark and run one workload.

    python3 svcbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The build goes to
$CARGO_TARGET_DIR/svcbench (default .bench_build/svcbench) and is
incremental; build output goes to stderr.  The benchmark's own output,
ending in one JSON line, goes to stdout.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "svcbench")


def build():
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("svcbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "svcbench")


def main():
    binary = build()
    sys.stdout.flush()
    result = subprocess.run([binary] + sys.argv[1:])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
