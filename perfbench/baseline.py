#!/usr/bin/env python3
"""Measure a baseline: run the benchmark on several seeds per workload.

    python3 perfbench/baseline.py

For each workload: RUNS runs with --trace 0 (seeds 1..RUNS) and one with
--trace 1.  Writes the per-metric medians, quartiles and relative
spreads, every run's values, the machine it ran on and the prediction
table to perfbench/baseline.json.  Takes about RUNS x 2 minutes plus 3 minutes.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata

sys.dont_write_bytecode = True

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
OUT = os.path.join(HERE, "baseline.json")


def run(workload, seed, seconds, trace):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs failed their checks\n{out.stdout}")
    return result, {line.strip() for line in lines if "sha256" in line}


def summary(values):
    """Median, quartiles, spread = (q3 - q1) / median, and the highest
    percentile with at least ten runs beyond it (None below 11 runs)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    ordered = sorted(values)
    k = len(values) - 10
    return {"runs": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else None,
            "tail": None if k < 1 else {"percentile": 100 * k / len(values),
                                        "value": ordered[k - 1]},
            "values": values}


def machine():
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), None)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "click"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), **versions}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    doc = {"machine": machine(), "run_seconds": seconds, "end_to_end": {}, "per_layer": {},
           "predictions": [{"layer": layer, "moves": moves,
                            "workloads": list(w) if isinstance(w, tuple) else w}
                           for layer, moves, w in workloads.PREDICTIONS]}
    digests = set()
    for w in workloads.WORKLOADS:
        values = {}
        for seed in range(1, RUNS + 1):
            result, seen = run(w, seed, seconds, 0)
            digests |= seen
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(w, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        doc["end_to_end"][w] = {name: summary(v) for name, v in values.items()}
        result, _ = run(w, 1, seconds, 1)
        doc["per_layer"][w] = {name: m["value"] for name, m in result["metrics"].items()}
    doc["export_digests"] = sorted(digests)
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
