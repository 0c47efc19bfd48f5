#!/usr/bin/env python3
"""Entry point of the CLASP replay benchmark.

    python3 replaybench/run.py --workload paper_batch --seed 1 \
        --seconds 20 --trace 0

Run from the root of a CLASP source tree. Builds the CLASP libraries and the
benchmark program from source (Release, into .bench_build/, or into
$CARGO_TARGET_DIR when that is set), then runs one workload for the given
number of seconds. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run. The
exit code is non-zero when the build fails, a run fails, or any output
check fails. See replaybench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_batch", "fleet10x_parallel", "service_mix")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"replaybench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "replaybench")


def build(bdir):
    """Configure once, then build incrementally; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(bdir, "replay_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no CLASP sources under {ROOT}/src; nothing to benchmark")
        return 2
    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, RuntimeError) as e:
        log(str(e))
        return 1

    # A private scratch directory per invocation, removed afterwards.
    work = os.path.join(bdir, "work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work,
           "--trace-dir", os.path.join(bdir, "traces")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        log(f"replay_bench exited {proc.returncode} without a result")
        return proc.returncode or 1
    print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
