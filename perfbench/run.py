"""surgeryinv benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload gauss_enum --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The seed generates the workload's
matrix files in .perfbench_work/; a fresh worker process (worker.py) then
drives surgeryinv.cli.main in-process as one sequential closed-loop client
over the workload's command list, pass after pass, for --seconds.  Every
output of the first pass is checked (checks.py), and every later pass must
reproduce it byte for byte.

With --trace 0 the last stdout line reports the end-to-end metrics:
wall_s, the median pass time; cmd_p50_ms, the median command latency over
all passes; cmd_tail_ms, the latency at the highest percentile with at
least ten samples beyond it in a run of the workload's fewest passes, so
the percentile does not depend on how many passes fit; peak_rss_mb, the worker's peak resident
memory; setup_s, the median over seven cold starts of the time from spawn
until the worker has imported the CLI and run its warm-up commands.  With
--trace 1, untraced and traced passes alternate and it reports per-layer
metrics from spans (tracer.py), averaged over the traced passes.  The line
before it holds the details: quartiles, sample counts, the tail percentile,
failures, input properties and output digests.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7      # cold starts per run; setup_s is their median
TAIL_BEYOND = 10       # samples required beyond the tail percentile
WORKER_TIMEOUT = 150   # seconds


class BenchError(Exception):
    """The run could not be carried out; no result is printed."""


def spawn(plan_path, env):
    """Start a worker; return it with the seconds until it reported ready."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), plan_path],
                            stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        proc.wait(WORKER_TIMEOUT)
        raise BenchError(f"worker did not start (exit code {proc.returncode})")
    return proc, setup


def run_worker(plan, workdir, env):
    """Set-up probes, then the measuring worker; returns (result, setup samples)."""
    probe_path = os.path.join(workdir, "probe.json")
    with open(probe_path, "w") as fh:
        json.dump(dict(plan, setup_only=True), fh)
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = spawn(probe_path, env)
        proc.stdout.close()
        if proc.wait(WORKER_TIMEOUT) != 0:
            raise BenchError("set-up probe failed")
        setups.append(setup)
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(dict(plan, setup_only=False), fh)
    proc, setup = spawn(plan_path, env)
    setups.append(setup)
    try:
        proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    with open(plan["result"]) as fh:
        return json.load(fh), setups


def end_to_end(result, setups, commands, min_passes):
    plain = [p for p in result["passes"] if not p["traced"]]
    walls = [p["wall"] for p in plain]
    samples = sorted(1000 * x for p in plain for x in p["latencies"])
    # the tail percentile is fixed per command list: with more passes the
    # same share of samples lies beyond it, so it stays on the same commands
    beyond = -(-(TAIL_BEYOND + 1) * len(samples) // (min_passes * commands))
    k = max(0, len(samples) - beyond)
    metrics = {
        "wall_s": statistics.median(walls),
        "cmd_p50_ms": statistics.median(samples),
        "cmd_tail_ms": samples[k],
        "peak_rss_mb": result["maxrss_kb"] / 1024,
        "setup_s": statistics.median(setups),
    }
    details = {
        "passes": len(plain),
        "wall_s_quartiles": statistics.quantiles(walls, n=4),
        "cmd_latency_samples": len(samples),
        "cmd_tail_percentile": 100 * k / len(samples),
        "setup_s_samples": setups,
    }
    return metrics, details


def per_layer(result):
    plain = [p["wall"] for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    rows = [tracer.layer_metrics(spans, p["wall"], p["harness"])
            for spans, p in zip(result["spans"], traced)]
    metrics = {name: statistics.fmean(r[name] for r in rows) for name in rows[0]}
    metrics["trace_overhead"] = metrics["traced_wall_s"] / statistics.fmean(plain) - 1
    metrics["cli.json_bytes"] = sum(len(text.encode()) for rc, text in result["outputs"] if rc == 0)
    accounted = sum(v for name, v in metrics.items() if name.endswith("_s") and name != "traced_wall_s")
    details = {"traced_passes": len(rows), "untraced_passes": len(plain),
               "unaccounted_s": metrics["traced_wall_s"] - accounted}
    return metrics, details


def declared_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def recorded_digests(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def run(args):
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "surgeryinv", "cli.py")):
        raise BenchError("run from the root of a surgeryinv checkout (src/surgeryinv not found)")
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        commands, expected, warmup, props = workloads.build(args.workload, args.seed, workdir)
        min_passes = workloads.MIN_PASSES[args.workload]
        plan = {"commands": commands, "warmup": warmup, "seconds": args.seconds,
                "trace": bool(args.trace), "min_passes": min_passes + args.trace,
                "result": os.path.join(workdir, "result.json")}
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        result, setups = run_worker(plan, workdir, env)
        recorded = recorded_digests(args.workload, args.seed)
        digests, failures = checks.check_outputs(result["outputs"], expected, recorded)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    n_passes = len(result["passes"])
    attempted = len(commands) * n_passes
    mismatched = {(p, i) for p, i in result["nondeterministic"] if i not in failures}
    failed = len(failures) * n_passes + len(mismatched)
    if args.trace:
        metrics, details = per_layer(result)
    else:
        metrics, details = end_to_end(result, setups, len(commands), min_passes)
    units = declared_metrics(args.trace)
    if set(units) != set(metrics):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    details.update({
        "workload": args.workload, "seed": args.seed,
        "commands_per_pass": len(commands),
        "failed_ratio": failed / attempted, "attempted": attempted, "failed": failed,
        "failures": sorted(failures.values())[:10],
        "nondeterministic": sorted(mismatched)[:10],
        "digests_from_seed_commit": recorded is not None,
        "digests": digests,
        "input_properties": props,
    })
    print(json.dumps(details))
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
