#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage, from the repository root:

    python3 perf/spread.py WORKLOAD SEED[,SEED...] [SECONDS]

Runs the command in BENCHMARK.json once per seed with tracing off and
prints, for every end-to-end metric, the median and the spread: the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound.
"""

import json
import statistics
import subprocess
import sys


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    workload, seeds = sys.argv[1], sys.argv[2].split(",")
    bench = json.load(open("BENCHMARK.json"))
    seconds = sys.argv[3] if len(sys.argv) > 3 else str(bench["run_seconds"])
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in seeds:
        cmd = bench["command"] + ["--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", "0"]
        run = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {row}", flush=True)
        for name in values:
            values[name].append(row[name])
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        spread = (q[2] - q[0]) / med if med else 0.0
        flag = "" if spread < m["bound"] / 3 else "  (above a third of the bound)"
        print(f"{m['name']:12s} median {med:14.6g} spread {spread:.4f} bound {m['bound']}{flag}")


if __name__ == "__main__":
    main()
