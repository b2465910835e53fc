"""The benchmark's recorded digests, checked in-process.

perfbench/digests.json pins a digest of the canonical fields of every
command's output (perfbench/checks.py CANONICAL), per workload and seed.
For seeds 1-3 of each workload this builds the run's inputs into a
temporary directory, runs one pass of its commands through the CLI in this
process, and requires that every output passes perfbench's checks and
matches its recorded digest.  Nothing under perfbench/ is written.
"""

import json
import os
import sys

import pytest

from surgeryinv import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
sys.path.insert(0, PERFBENCH)

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(PERFBENCH, "digests.json")) as fh:
    DIGESTS = json.load(fh)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_outputs_match_the_recorded_digests(tmp_path, workload, seed):
    commands, expected, _, _ = workloads.build(workload, seed, str(tmp_path))
    outputs = worker.run_pass(cli, commands, None, None)[2]
    recorded = DIGESTS[workload][str(seed)]
    assert len(recorded) == len(commands)
    _, failures = checks.check_outputs(outputs, expected, recorded)
    assert not failures, sorted(failures.values())[:5]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_benchmark_line_takes_the_line_table(tmp_path, workload):
    # the warm-up lines and every command of seeds 1-3: a line the table
    # left to argparse would run, and print the same, only slower
    lines = []
    for seed in (1, 2, 3):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        commands, _, warmup, _ = workloads.build(workload, seed, str(workdir))
        lines += warmup + [command["argv"] for command in commands]
    for argv in lines:
        table = cli._read_line(argv)
        assert table is not None and table == cli.build_parser().parse_args(argv), argv
