import importlib.util
import json
import os
import tempfile

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.25},
           {"name": "score", "better": "higher", "bound": 0.1}]

# kernel_kirby wall_s, seeds 1-10, from BENCH_sign_in_matrix.json
PARENT_WALL = [0.070355, 0.070054, 0.066773, 0.067632, 0.068161,
               0.072869, 0.071036, 0.067645, 0.07084, 0.07747]
CHANGE_WALL = [0.073196, 0.070649, 0.067876, 0.065268, 0.066521,
               0.068634, 0.066929, 0.065412, 0.071443, 0.065]


def runs(walls, scores):
    return [{"wall_s": w, "score": s} for w, s in zip(walls, scores)]


def test_summary_reproduces_a_recorded_benchmark_row():
    s = bench_pairs.summarize(runs(PARENT_WALL, [1] * 10), runs(CHANGE_WALL, [1] * 10),
                              METRICS)["wall_s"]
    assert s["parent_median"] == 0.070205
    assert s["change_median"] == 0.067403
    assert s["ratio"] == 0.9601
    assert s["change_lower_pairs"] == 6
    assert s["pairs"] == 10
    assert s["parent_iqr"] == 0.003853
    assert s["parent_quartiles"] == [0.067642, 0.071494]
    assert s["bound"] == 0.25
    assert s["parent_runs"] == PARENT_WALL and s["change_runs"] == CHANGE_WALL
    # lower in 6 of 10 pairs: no gain may be claimed
    assert s["gain_rule_met"] is False


def test_gain_rule_needs_nine_tenths_of_the_pairs_and_a_median_gap_beyond_the_iqr():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    faster = [x - 3 for x in parent]
    s = bench_pairs.summarize(runs(parent, parent), runs(faster, faster), METRICS)
    # quartiles 10.75 and 13.25: the IQR is 2.5, the gap 3
    assert s["wall_s"]["parent_iqr"] == 2.5
    assert s["wall_s"]["gain_rule_met"] is True
    assert s["wall_s"]["change_lower_pairs"] == 10
    # a higher-is-better metric that read lower got worse
    assert s["score"]["gain_rule_met"] is False and s["score"]["ratio"] == round(9 / 12, 4)
    # a gap of 2 is inside the IQR
    s = bench_pairs.summarize(runs(parent, parent), runs([x - 2 for x in parent], parent),
                              METRICS)
    assert s["wall_s"]["gain_rule_met"] is False
    # 8 pairs of 10 lower is not nine tenths; a tie counts for neither side
    mixed = faster[:8] + parent[8:]
    s = bench_pairs.summarize(runs(parent, parent), runs(mixed, parent), METRICS)
    assert s["wall_s"]["change_lower_pairs"] == 8
    assert s["wall_s"]["gain_rule_met"] is False
    assert s["score"]["change_lower_pairs"] == 0


def test_summary_refuses_unequal_or_too_few_pairs():
    with pytest.raises(ValueError):
        bench_pairs.summarize(runs([1, 2], [1, 2]), runs([1], [1]), METRICS)
    with pytest.raises(ValueError):
        bench_pairs.summarize(runs([1], [1]), runs([1], [1]), METRICS)


def test_seed_lists_and_pair_checks():
    assert bench_pairs.parse_seeds("101-105") == [101, 102, 103, 104, 105]
    assert bench_pairs.parse_seeds("3,7-8,1") == [3, 7, 8, 1]
    good = {"correct": True, "digests": {"snf": "ab"}}
    bench_pairs.check_pair(good, dict(good))
    with pytest.raises(bench_pairs.PairRefused):
        bench_pairs.check_pair(good, dict(good, correct=False))
    with pytest.raises(bench_pairs.PairRefused):
        bench_pairs.check_pair(good, dict(good, digests={"snf": "cd"}))


def test_main_deletes_its_own_temporary_directory_and_keeps_a_given_one(tmp_path,
                                                                        monkeypatch):
    bench = {"command": ["python3", "perfbench/run.py"], "run_seconds": 1,
             "workloads": [{"name": "w"}], "end_to_end": METRICS}
    trees = []

    def export(rev, dest):
        os.makedirs(dest)
        with open(os.path.join(dest, "BENCHMARK.json"), "w") as fh:
            json.dump(bench, fh)
        trees.append(dest)

    def run_once(tree, command, workload, seed, seconds):
        # `correct` is the loop variable below: False refuses the first pair
        return {"correct": correct, "metrics": {"wall_s": 1.0 + seed, "score": 1.0},
                "digests": {"w": "ab"}}

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    argv = ["HEAD~1", "HEAD", "--seeds", "1-2"]
    for correct, code in [(True, 0), (False, 1)]:  # a full run, then a refused pair
        trees.clear()
        assert bench_pairs.main(argv) == code
        assert len(trees) == 2 and not os.path.exists(os.path.dirname(trees[0]))
    assert os.listdir(tmp_path) == []
    for correct, code in [(True, 0), (False, 1)]:
        workdir = tmp_path / f"given-{correct}"
        assert bench_pairs.main(argv + ["--workdir", str(workdir)]) == code
        assert sorted(os.listdir(workdir)) == ["change", "parent"]
