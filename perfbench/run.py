#!/usr/bin/env python3
"""Builds papc from the sources next to this directory and runs one
workload of the repo benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload sync-large --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/ at the repo root (cmake, Release, two
jobs). The benchmark binary's readable report is passed through; the full
result (host fingerprint included) is saved under .bench_build/results/
and, with --trace 1, the spans under .bench_build/spans/. The last line
printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). The exit code is 0 only when every run was
checked correct and every named metric is present.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "papc_perfbench")
WORKLOADS = ("sync-large", "event-1t", "event-2t-faulted", "sweep-small")
DEFAULT_SEED = 1
# A second seed, never used while tuning the benchmark: later changes
# confirm a claimed gain on it as well as on DEFAULT_SEED.
CONFIRM_SEED = 2


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("papc sources (CMakeLists.txt, src/) not found at " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "papc_perfbench",
                  "-j", "2"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                die("build failed, see " + log_path)


def named_metrics(trace):
    """Metric names BENCHMARK.json requires for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimum sizes (checks the benchmark itself)")
    args = parser.parse_args()

    build()
    names = named_metrics(args.trace)
    tag = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                   "-smoke" if args.smoke else "")
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    out_path = os.path.join(results, tag + ".json")
    if os.path.exists(out_path):
        os.remove(out_path)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out_path]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans", os.path.join(spans, tag + ".json")]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    code = subprocess.run(command).returncode
    if not os.path.isfile(out_path):
        die("benchmark exited with %d and wrote no result" % code)
    with open(out_path) as f:
        result = json.load(f)
    print("fingerprint " + json.dumps(result["fingerprint"], sort_keys=True))

    metrics = {}
    for name in names:
        metric = result["metrics"].get(name)
        if metric is None or not math.isfinite(metric["value"]):
            die("metric %s missing or not finite" % name)
        metrics[name] = {"value": metric["value"], "unit": metric["unit"]}
    correct = bool(result["correct"]) and code == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
