"""Tiny-size smoke test of the benchmark harness.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload end to end, untraced and traced, on shrunken inputs,
checks the reference algebra against surgeryinv on small matrices, and
checks that the harness refuses to run outside a source checkout.
"""

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import algebra  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "gauss_enum": [("lens", (12,), 2), ("diag", (0, 2, 6), 2), ("lens", (5,), 3)],
    "kernel_kirby": [("dense", 4, (4, 8)), ("tree", 4, (4, 8))],
    "reciprocity_dual": [(2, 1, (4, 8), (3, 8)), (1, 2, (3, 8), (4, 8))],
}
UNRECORDED_SEED = 987654321


@pytest.fixture
def tiny(monkeypatch):
    for name, slots in TINY.items():
        monkeypatch.setitem(workloads.SLOTS, name, slots)
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_and_checks(tiny, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", str(UNRECORDED_SEED),
                     "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    details, result = (json.loads(x) for x in capsys.readouterr().out.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert set(result["metrics"]) == set(run.declared_metrics(trace))
    if trace:  # spans and the harness's own timing cover the traced pass
        wall = result["metrics"]["traced_wall_s"]["value"]
        assert abs(details["unaccounted_s"]) < 0.05 * wall, (details["unaccounted_s"], wall)
    assert all(m["value"] > 0 for name, m in result["metrics"].items()
               if name != "trace_overhead"), result["metrics"]


def test_refuses_outside_a_checkout(tmp_path):
    os.makedirs(tmp_path / "perfbench")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           "gauss_enum", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_reference_algebra_matches_the_library():
    from surgeryinv.exactmat import signature, smith_normal_form
    from surgeryinv.surgery import evenize

    rng = random.Random(0)
    for n in range(1, 8):
        for _ in range(10):
            m = workloads.rand_symmetric(rng, n, 6)
            t = tuple(map(tuple, m))
            assert algebra.signature(m) == signature(t)
            assert algebra.evenized_size(m) == len(evenize(t)[0])
            if algebra.det(m):
                snf = smith_normal_form(t)
                assert algebra.invariant_factors(m) == [x for x in snf.invariant_factors() if x >= 2]
