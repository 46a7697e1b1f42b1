#!/usr/bin/env python3
"""Repository benchmark entry point (perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload <kitti_single|fleet|design_flow> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary from source (perfbench/CMakeLists.txt, a
package of its own over ../src) into $CARGO_TARGET_DIR or .bench_build,
runs one workload, checks that the result carries exactly the metrics
BENCHMARK.json lists for the mode, and prints it as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}. The traced run
(--trace 1) also writes its span trace, per-layer self times and the
library's telemetry export under .bench_out/<workload>-seed<n>/.

Exit status: 0 when every output check passed; 1 when a check failed
(the result is still printed) or the binary crashed or timed out; 2 when
the benchmark cannot build or run here (no result is printed).
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kitti_single", "fleet", "design_flow")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures once and builds incrementally; serialized by a lock so
    concurrent runs in one checkout never build over each other."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j4"])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(step))
    binary = os.path.join(build_dir, "archytas_perfbench")
    if not os.path.exists(binary):
        fail("build produced no benchmark binary")
    return binary


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "service")):
        fail("library sources (src/) not found next to perfbench/")
    expected = expected_metrics(args.trace == 1)
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                           ".bench_build"),
        "perfbench")
    binary = build(os.path.abspath(build_dir))

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--out", os.path.join(
            ROOT, ".bench_out", f"{args.workload}-seed{args.seed}")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s", 1)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{args.workload} printed no result "
             f"(exit status {done.returncode})", 1)

    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has the wrong keys", 1)
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if reported != expected:
        fail(f"metrics differ from BENCHMARK.json: "
             f"{sorted(set(reported.items()) ^ set(expected.items()))}", 1)

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if done.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
