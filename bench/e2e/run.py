#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 bench/e2e/run.py --workload ont-bsp --seed 3 --seconds 20 --trace 0

Builds bench/e2e (the gnbody binary plus bench_e2e) into
build-e2e/ at the repository root, then runs bench_e2e with its outputs under
build-e2e/runs/. --trace 1 selects the per-layer traced run. The last line on
stdout is the result JSON; build output goes to stderr. Exits non-zero when
the repository sources are missing, the build fails, or any check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")


def build():
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"run.py: {needed} is missing at {ROOT}; the benchmark builds the "
                     "repository from source")
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for command in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: {' '.join(command)} failed with exit code {done.returncode}")


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="ont-bsp | ont-async | hifi-pool | ont-crash")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json-out", help="also write the detailed run record here")
    parser.add_argument("--negative-control", action="store_true",
                        help="perturb the expected digest: every operation must fail")
    args = parser.parse_args()

    build()
    out = os.path.join(BUILD, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    command = [os.path.join(BUILD, "bench_e2e"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", out,
               "--git-sha", git_sha()]
    if args.trace:
        command.append("--traced")
    if args.json_out:
        command += ["--json-out", os.path.abspath(args.json_out)]
    if args.negative_control:
        command.append("--negative-control")
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
