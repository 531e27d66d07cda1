#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage (from the repository root):

  python3 bench_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 bench_e2e/run.py --self-test

The build goes to $CARGO_TARGET_DIR (relative paths are taken from the
repository root), or to .bench_build when it is unset. Build output goes to
stderr; the last line of stdout is the benchmark's JSON result. Traced runs
write their span files to bench_e2e/out/. See bench_e2e/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"bench_e2e: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no TASFAR sources under {ROOT}/src; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target", "tasfar_bench_e2e", "tasfar_bench_e2e_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="feed every output check a corrupted output")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        fail("--workload is required")

    out = build_dir()
    build(out)
    if args.self_test:
        cmd = [os.path.join(out, "tasfar_bench_e2e_selftest")]
    else:
        trace_dir = os.path.join(HERE, "out")
        os.makedirs(trace_dir, exist_ok=True)
        cmd = [os.path.join(out, "tasfar_bench_e2e"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out", trace_dir]
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(cmd[0])} did not finish in {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
