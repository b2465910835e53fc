"""Benchmark worker: one closed-loop client calling surgeryinv.cli.main.

Run as `python3 perfbench/worker.py PLAN` with surgeryinv importable.  It
imports the CLI, runs the warm-up commands, prints "ready" (the parent
times set-up up to that line), and unless the plan is set-up only, runs
passes over the command list until the plan's time is spent.  Each pass
runs the commands one after another in this process, capturing stdout and
stderr; outputs a command saves are written as matrix files for the
commands that read them.  Results go to the plan's result file.
"""

import contextlib
import io
import json
import resource
import statistics
import sys
import traceback
from time import perf_counter

from workloads import write_matrix


def run_command(cli, argv):
    """Run one command; returns (exit code, latency, output text, seconds
    this function spent outside the cli.main call)."""
    t_in = perf_counter()
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        elapsed = perf_counter() - t0
    except Exception:  # a crash is a failed command, not a failed run
        elapsed = perf_counter() - t0
        rc = "exception: " + traceback.format_exc(limit=3)
    t1 = perf_counter()
    text = out.getvalue() if rc == 0 else err.getvalue()
    return rc, elapsed, text, (t0 - t_in) + (perf_counter() - t1)


def save_outputs(text, save):
    doc = json.loads(text)
    for key, path in save.items():
        write_matrix(path, doc[key])


def run_pass(cli, commands, tracer, reference):
    """One pass over the command list; returns (wall, latencies, outputs,
    indices whose output differs from the reference pass, harness seconds).

    Harness seconds are timed directly: the command wrapper's own work,
    the comparison with the reference pass and the saving of outputs.
    """
    latencies, outputs, bad = [], [], []
    harness = 0.0
    t0 = perf_counter()
    for i, cmd in enumerate(commands):
        if tracer:
            tracer.cmd = i
        rc, elapsed, text, own = run_command(cli, cmd["argv"])
        t1 = perf_counter()
        latencies.append(elapsed)
        if reference is None:
            outputs.append((rc, text))
        elif (rc, text) != reference[i]:
            bad.append(i)
        if rc == 0 and cmd["save"]:
            save_outputs(text, cmd["save"])
        harness += own + (perf_counter() - t1)
    return perf_counter() - t0, latencies, outputs, bad, harness


def measure(cli, plan):
    """Passes until plan["seconds"] is spent; traced plans alternate
    untraced and traced passes."""
    tracer = None
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer()
    commands = plan["commands"]
    passes, traced, nondeterministic = [], [], []
    reference = None
    start = perf_counter()
    while True:
        use_trace = tracer is not None and len(passes) % 2 == 1
        if use_trace:
            tracer.install()
        try:
            wall, lat, outputs, bad, harness = run_pass(
                cli, commands, tracer if use_trace else None, reference)
        finally:
            if use_trace:
                tracer.uninstall()
        if reference is None:
            reference = outputs
        nondeterministic += [[len(passes), i] for i in bad]
        passes.append({"wall": wall, "latencies": lat, "traced": use_trace, "harness": harness})
        if use_trace:
            traced.append(tracer.take())
        elapsed = perf_counter() - start
        typical = statistics.median(p["wall"] for p in passes)
        if len(passes) >= plan["min_passes"] and elapsed + typical > plan["seconds"]:
            break
    return {
        "passes": passes,
        "spans": traced,
        "outputs": reference,
        "nondeterministic": nondeterministic,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main():
    with open(sys.argv[1]) as fh:
        plan = json.load(fh)
    from surgeryinv import cli
    for argv in plan["warmup"]:
        run_command(cli, argv)
    print("ready", flush=True)
    if plan["setup_only"]:
        return
    result = measure(cli, plan)
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
