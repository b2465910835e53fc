"""Steadiness check: run workloads once per seed, report each metric's spread.

    python3 perfbench/steady.py [--workload kernel_kirby,gauss_enum] [--seeds 1-10]
        [--trace 1]

Run from the root of a source checkout.  Each run is a fresh
`python3 perfbench/run.py` process; the default is every workload.  For
each metric the report gives the median of the per-run values and the
spread, the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median, next to the metric's
bound from BENCHMARK.json and a third of it, then the failed commands over
the commands attempted.  The spread of setup_s is shown but not judged:
its bound limits how far its median may move between two sets of runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    if len(values) < 2:
        return values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def run_seeds(workload, seeds, seconds, trace):
    runs = []
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append(result)
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
    return runs


def summarize(workload, runs, declared):
    print(f"== {workload} ({len(runs)} runs)")
    for m in declared:
        med, rel = spread([r["metrics"][m["name"]]["value"] for r in runs])
        verdict = ""
        if m["name"] == "setup_s":
            verdict = f"bound {m['bound']} on the median only"
        elif "bound" in m:
            bound = m["bound"]
            verdict = "ok" if rel < bound / 3 else "within bound" if rel <= bound else "TOO WIDE"
            verdict = f"bound {bound} (third {bound / 3:.3f}) {verdict}"
        print(f"  {m['name']:32s} {med:14.6g} {m['unit']:6s} spread {rel:7.4f} {verdict}")
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    print(f"  {'failed_ratio':32s} {failed / attempted:14.6g} ratio  ({failed} of {attempted})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    for workload in args.workload.split(","):
        summarize(workload, run_seeds(workload, args.seeds, seconds, args.trace), declared)


if __name__ == "__main__":
    main()
