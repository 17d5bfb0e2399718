#!/usr/bin/env python3
"""Build and run the end-to-end plan-serving benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload wire_heavy --seed 1 --seconds 15 --trace 0

Builds perfbench/ (and the library it links, from the sources one level
up) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset, then runs one workload.  Build output goes to stderr;
stdout is the benchmark's report, whose last line is the JSON result.
The exit code is non-zero when the build fails, when any result is wrong,
or when the result line does not match BENCHMARK.json.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_sweep", "wire_heavy")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not (
        os.path.isdir(os.path.join(ROOT, "src"))
    ):
        fail("library sources not found next to perfbench/; nothing to build")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "planbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    binary = os.path.join(out_dir, "planbench")
    if not os.path.isfile(binary):
        fail("build produced no planbench binary")
    return binary


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown-not-a-git-checkout"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit_id()]
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.csv")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        pass
    if done.returncode not in (0, 1) or result is None:
        sys.stdout.write(done.stdout)
        fail(f"planbench exited with {done.returncode} and no result line")
    expected = expected_metrics(args.trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"result metrics {sorted(got)} do not match BENCHMARK.json "
             f"{sorted(expected)}")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0 if done.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
