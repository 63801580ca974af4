#!/usr/bin/env python3
"""Compares two sets of benchmark results, as run.py saves them under
.bench_build/results/ (one JSON file per run).

    python3 perfbench/compare.py BEFORE AFTER [--force]

BEFORE and AFTER are result files or directories of them. Runs are grouped
by workload and trace mode; each metric's median is compared, and the
end-to-end metrics are judged against the bounds in BENCHMARK.json.
Results recorded on different hosts (CPU model, core count, SIMD level or
build type differ) are not compared unless --force is given: the exit
code is then 3, and the table is not printed.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINT_KEYS = ("cpu_model", "nproc", "detected_simd", "active_simd",
                    "build_type")


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    runs = [json.load(open(f)) for f in files]
    if not runs:
        sys.exit("compare: no results in " + path)
    return runs


def host(runs):
    return {tuple((k, r["fingerprint"].get(k)) for k in FINGERPRINT_KEYS)
            for r in runs}


def medians(runs):
    groups = {}
    for r in runs:
        key = (r["workload"], bool(r["trace"]))
        for name, metric in r["metrics"].items():
            groups.setdefault(key, {}).setdefault(name, []).append(
                metric["value"])
    return {key: {name: statistics.median(v) for name, v in metrics.items()}
            for key, metrics in groups.items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--force", action="store_true",
                        help="compare across differing host fingerprints")
    args = parser.parse_args()
    before, after = load(args.before), load(args.after)

    hosts = host(before) | host(after)
    if len(hosts) > 1:
        print("FINGERPRINT MISMATCH: results come from %d hosts/builds:"
              % len(hosts))
        for h in sorted(hosts):
            print("  " + ", ".join("%s=%s" % kv for kv in h))
        if not args.force:
            return 3

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    mb, ma = medians(before), medians(after)
    worse = 0
    for key in sorted(set(mb) & set(ma)):
        workload, trace = key
        print("%s%s" % (workload, " (traced)" if trace else ""))
        for name in sorted(set(mb[key]) & set(ma[key])):
            b, a = mb[key][name], ma[key][name]
            info = e2e.get(name) or layer.get(name) or {}
            change = (a - b) / b if b else float("nan")
            verdict = ""
            if name in e2e and not trace:
                loss = change if info["better"] == "lower" else -change
                if loss > info["bound"]:
                    verdict = "  WORSE than bound %.2f" % info["bound"]
                    worse += 1
            print("  %-36s %14.6g -> %14.6g %s %+7.2f%%%s" % (
                name, b, a, info.get("unit", ""), 100 * change, verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
