#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds perfbench/ (libslfe from this checkout's
sources plus the perfbench binary) into $CARGO_TARGET_DIR or .bench_build,
runs the binary, checks that the metrics it printed are exactly the ones
BENCHMARK.json declares for the mode (end_to_end for --trace 0, per_layer
for --trace 1), and prints the result as the last line of stdout. Exits
non-zero without a result when the build fails, and non-zero with
"correct": false when any operation failed or returned a wrong result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_mix", "solve_deep", "mutate_stream")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(result, declared):
    """Returns a list of contract problems with the binary's JSON line."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    printed = result["metrics"]
    for name in sorted(set(declared) - set(printed)):
        problems.append("missing metric " + name)
    for name in sorted(set(printed) - set(declared)):
        problems.append("undeclared metric " + name)
    for name, metric in printed.items():
        if name in declared and metric.get("unit") != declared[name]:
            problems.append("unit of %s is %s, declared %s"
                            % (name, metric.get("unit"), declared[name]))
    return problems


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench_build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out (see %s)" % log_path, 1)
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (see %s)" % log_path, 1)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(HERE, "..", "CMakeLists.txt")):
        fail("no program sources next to perfbench/; nothing to build", 1)
    declared = declared_metrics(args.trace)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    binary = build(build_dir)

    work_dir = os.path.join(build_dir, "run", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(work_dir)
    env = dict(os.environ)
    env.pop("SLFE_BENCH_SCALE", None)  # graphs at the default scale
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              universal_newlines=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work_dir, ignore_errors=True)
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)

    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    # Keep the Chrome trace of a traced run; drop stores and scratch.
    traces = os.path.join(build_dir, "traces")
    for name in os.listdir(work_dir):
        if name.startswith("trace_") and name.endswith(".json"):
            os.makedirs(traces, exist_ok=True)
            os.replace(os.path.join(work_dir, name), os.path.join(traces, name))
            print("chrome trace kept at " + os.path.join(traces, name))
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("perfbench exited %d without a result line" % done.returncode, 1)
    problems = check_result(result, declared)
    if problems:
        fail("result does not match BENCHMARK.json: " + "; ".join(problems))
    if done.returncode != 0 and result["correct"] and result["failed"] == 0:
        fail("perfbench exited %d" % done.returncode, 1)
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
