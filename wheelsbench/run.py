#!/usr/bin/env python3
"""End-to-end benchmark of the wheels simulator.

Run from the repository root:

    python3 wheelsbench/run.py --workload drive|replay|trace_io \
        --seed N --seconds S --trace 0|1 [--smoke] [--break-check]

Builds the libraries under src/ and the wheelsbench binary (Release) into
.bench_build/, keeps inputs and outputs under .bench_work/, and prints a
{"facts": ...} line followed by the result object as the last line of
standard output. See wheelsbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "wheelsbench"
WORK = ROOT / ".bench_work"
WORKLOADS = ("drive", "replay", "trace_io")


def fail(message):
    print(f"wheelsbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(jobs):
    """Configure once, then bring the binary up to date (a no-op when it is)."""
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring the build failed")
    command = ["cmake", "--build", str(BUILD), "--target", "wheelsbench",
               "-j", str(jobs)]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("building wheelsbench failed")
    return BUILD / "wheelsbench"


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    parser.add_argument("--break-check", action="store_true",
                        help="deliberately fail one output check")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no library sources under {ROOT / 'src'}")
    nproc = len(os.sched_getaffinity(0))
    threads = min(4, nproc)
    binary = build(nproc)

    work = WORK / (("smoke-" if args.smoke else "") + args.workload)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--threads", str(threads),
               "--work", str(work)]
    if args.smoke:
        command.append("--smoke")
    if args.break_check:
        command.append("--break-check")
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail(f"wheelsbench exited with {proc.returncode}")
    facts = json.loads(lines[-2])["facts"]
    result = json.loads(lines[-1])
    facts.update(nproc=nproc, git_sha=git_sha(),
                 trace=args.trace)
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
