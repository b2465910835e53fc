"""Measure a speed claim in alternating pairs of benchmark runs.

    python tools/bench_pairs.py PARENT CHANGE --seeds 101-110 \\
        [--workloads kernel_kirby,gauss_enum] [--out BENCH_x.json] [--workdir DIR]

Run from inside a git checkout.  PARENT and CHANGE are commits.  Each is
exported with `git archive` into a fresh directory, so neither copy holds a
bytecode cache.  The two copies go under DIR, which is kept, or else under
a new temporary directory, which is deleted however the tool exits.  For
every seed and workload the tool runs the command that BENCHMARK.json
declares, with `--workload W --seed S --seconds N --trace 0`
and N its `run_seconds`, once in each copy, with PYTHONDONTWRITEBYTECODE=1.
Those two runs are a pair.  The parent runs first in the first pair, and
the side that runs first alternates from pair to pair.  A pair where either run is not `correct`, or
where the two sides' output digests differ, is refused: the tool stops.

For every workload and every end-to-end metric of BENCHMARK.json it prints
each side's median and quartiles, the ratio change/parent, in how many pairs
the change read lower, the parent's interquartile range and the bound.  With
--out it writes them as the `end_to_end` section of a BENCH_*.json record.
`gain_rule_met` says whether a gain may be claimed: the change read better
in at least nine tenths of the pairs, and the medians differ by more than
the parent's interquartile range.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile


class PairRefused(RuntimeError):
    """A run failed its checks, or the two sides printed different outputs."""


def parse_seeds(text):
    """'101-110' or '1,2,5' or a mix of both: the seeds in order."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def export(rev, dest):
    """Write the tree of commit rev into the new directory dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev],
                         stdout=subprocess.PIPE, check=True).stdout
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def rev_parse(rev):
    return subprocess.run(["git", "rev-parse", rev], stdout=subprocess.PIPE, text=True,
                          check=True).stdout.strip()


def run_once(tree, command, workload, seed, seconds):
    """One benchmark run in tree: {"correct", "metrics", "digests"}."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise PairRefused(f"{workload} seed {seed} in {tree} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-500:]}")
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "digests": details["digests"]}


def check_pair(parent, change):
    if not parent["correct"] or not change["correct"]:
        raise PairRefused("a run is not correct")
    if parent["digests"] != change["digests"]:
        raise PairRefused("the two sides' output digests differ")


def quartiles(xs):
    """First and third quartile, statistics.quantiles' exclusive method."""
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def summarize(parent_runs, change_runs, metrics):
    """One workload's pairs, as {metric: summary}.

    parent_runs[k] and change_runs[k] map metric names to the values of
    pair k; metrics are BENCHMARK.json's end_to_end entries (name, better,
    bound).  A pair counts for a side only when it reads strictly better.
    """
    if len(parent_runs) != len(change_runs) or len(parent_runs) < 2:
        raise ValueError("need two or more pairs, as many runs on each side")
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        par = [run[name] for run in parent_runs]
        chg = [run[name] for run in change_runs]
        par_med, chg_med = statistics.median(par), statistics.median(chg)
        par_q, chg_q = quartiles(par), quartiles(chg)
        iqr = par_q[1] - par_q[0]
        better = sum(1 for p, c in zip(par, chg) if sign * (c - p) < 0)
        out[name] = {
            "parent_median": round(par_med, 6),
            "change_median": round(chg_med, 6),
            "parent_quartiles": [round(q, 6) for q in par_q],
            "change_quartiles": [round(q, 6) for q in chg_q],
            "ratio": round(chg_med / par_med, 4) if par_med else None,
            "change_lower_pairs": sum(1 for p, c in zip(par, chg) if c < p),
            "pairs": len(par),
            "parent_iqr": round(iqr, 6),
            "bound": metric["bound"],
            "gain_rule_met": 10 * better >= 9 * len(par) and sign * (par_med - chg_med) > iqr,
            "parent_runs": par,
            "change_runs": chg,
        }
    return out


def format_table(summary):
    lines = [f"{'workload':<18}{'metric':<13}{'parent (q1-q3)':>30}{'change (q1-q3)':>30}"
             f"{'ratio':>8}{'lower':>7}{'IQR':>10}{'bound':>7}  gain"]
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            par = "{:.6g} ({:.6g}-{:.6g})".format(s["parent_median"], *s["parent_quartiles"])
            chg = "{:.6g} ({:.6g}-{:.6g})".format(s["change_median"], *s["change_quartiles"])
            lines.append(f"{workload:<18}{name:<13}{par:>30}{chg:>30}{s['ratio']!s:>8}"
                         f"{s['change_lower_pairs']:>4}/{s['pairs']:<2}"
                         f"{s['parent_iqr']:>10.4g}{s['bound']:>7}  "
                         f"{'met' if s['gain_rule_met'] else '-'}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--workloads", help="comma-separated; default every workload")
    parser.add_argument("--out", help="write the summary to this JSON file")
    parser.add_argument("--workdir", help="where to export the two commits, kept "
                        "afterwards (by default a new temporary directory, deleted "
                        "on exit)")
    args = parser.parse_args(argv)
    if args.workdir:
        return compare(args, args.workdir)
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as workdir:
        return compare(args, workdir)


def compare(args, workdir):
    """Export both commits under workdir, run the pairs and report them:
    main's exit code."""
    trees = {side: os.path.join(workdir, side) for side in ("parent", "change")}
    export(args.parent, trees["parent"])
    export(args.change, trees["change"])
    with open(os.path.join(trees["parent"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        if json.load(fh) != bench:
            print("bench_pairs: BENCHMARK.json differs between the two commits",
                  file=sys.stderr)
            return 2
    command = [sys.executable if word in ("python", "python3") else word
               for word in bench["command"]]
    seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])

    runs = {w: {"parent": [], "change": []} for w in workloads}
    try:
        for k, seed in enumerate(args.seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for workload in workloads:
                pair = {}
                for side in order:
                    pair[side] = run_once(trees[side], command, workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: wall_s "
                          f"{pair[side]['metrics'].get('wall_s')}", file=sys.stderr)
                check_pair(pair["parent"], pair["change"])
                for side, result in pair.items():
                    runs[workload][side].append(result["metrics"])
    except PairRefused as exc:
        print(f"bench_pairs: pair refused: {exc}", file=sys.stderr)
        return 1

    summary = {w: summarize(r["parent"], r["change"], bench["end_to_end"])
               for w, r in runs.items()}
    print(format_table(summary))
    if args.out:
        record = {
            "protocol": f"{' '.join(bench['command'])}, {seconds:g} s runs, seeds "
                        f"{','.join(map(str, args.seeds))}, parent and change alternating "
                        "(parent first in the first pair), each tree a git-archive copy "
                        "with no __pycache__, PYTHONDONTWRITEBYTECODE=1; every run correct, "
                        "digests equal between the trees",
            "parent": rev_parse(args.parent),
            "change": rev_parse(args.change),
            "seeds": args.seeds,
            "end_to_end": summary,
        }
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
