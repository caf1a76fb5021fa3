#!/usr/bin/env python3
"""Build and run the serving benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload exact_uniform --seed 1 --seconds 20 \
        --trace 0 [--record runs.jsonl]

Run from the root of a checkout. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the library from
src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
only rebuild what changed. Build output goes to standard error. The last line
of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the exit code is non-zero when
the build fails, the program fails, or an answer is wrong.

--record PATH appends {"workload", "seed", "trace", "result"} to PATH as one
JSON line, the input format of perfbench/compare.py.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("exact_uniform", "zipf_churn", "local_approx")
RUN_TIMEOUT_S = 170


def run_child(cmd, timeout=None, **kwargs):
    """subprocess.run in a process group of its own. On any way out (error,
    timeout, SIGTERM) the whole group is killed and reaped, so no compiler
    or benchmark process outlives this script."""
    proc = subprocess.Popen(cmd, process_group=0, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return subprocess.CompletedProcess(cmd, proc.returncode, out)
    finally:
        if proc.returncode is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()


def build(build_dir):
    """Configure (once) and build the benchmark; False on failure."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("run.py: no src/ next to perfbench/: run from a full checkout",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if run_child(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--record", help="append the result to this JSONL file")
    args = ap.parse_args()
    # A SIGTERM unwinds through run_child, which kills and reaps the process
    # group it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "er_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = run_child(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %ds" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        print("run.py: no result line (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": int(args.trace),
                                "result": result}) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
