#!/usr/bin/env python3
"""Smoke test of the benchmark itself: runs every workload at minimum size
(untraced), then one traced run, and fails if a run is not correct or any
end-to-end or per-layer metric named in BENCHMARK.json is missing.

    python3 perfbench/smoke_test.py

Takes well under a minute once the benchmark is built.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "0",
               "--trace", str(trace), "--smoke"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          universal_newlines=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, "exit %d" % proc.returncode
    return json.loads(lines[-1]), ""


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    cases = [(w["name"], 0) for w in spec["workloads"]]
    cases.append((spec["workloads"][0]["name"], 1))
    failures = []
    for workload, trace in cases:
        result, error = run(workload, trace)
        label = "%s trace=%d" % (workload, trace)
        if result is None:
            failures.append("%s: %s" % (label, error))
            continue
        wanted = spec["per_layer" if trace else "end_to_end"]
        missing = [m["name"] for m in wanted
                   if m["name"] not in result["metrics"]]
        if missing:
            failures.append("%s: missing %s" % (label, ", ".join(missing)))
        if not result["correct"] or result["failed"] != 0:
            failures.append("%s: %d of %d runs failed" %
                            (label, result["failed"], result["attempted"]))
        print("%-28s ok, %d metrics" % (label, len(result["metrics"])))
    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
