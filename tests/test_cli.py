import argparse
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from surgeryinv import cli
from surgeryinv.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    format_matrix,
    parse_matrix,
)
from surgeryinv.gauss import CyclotomicSum
from surgeryinv.homology import lens_presentation, linking_form, presentation
from helpers import phase_sum, rand_symmetric, signed, symmetric_matrices


def write(tmp_path, name, matrix):
    path = tmp_path / name
    path.write_text(format_matrix(matrix))
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_round_trip():
    rng = random.Random(601)
    for _ in range(20):
        m = tuple(
            tuple(rng.randint(-99, 99) for _ in range(rng.randint(1, 5)))
            for _ in range(1)
        )
        m = m * rng.randint(1, 4)
        assert parse_matrix(format_matrix(m)) == m
    # the empty matrix is the one matrix with a 0 dimension, written 0 0
    assert format_matrix(()) == "0 0\n" and parse_matrix("0 0\n") == ()


def test_matrix_parse_accepts_comments_and_blank_lines():
    text = "# linking matrix\n\n2 2\n# rows follow\n-1 2\n 2  3 \n"
    assert parse_matrix(text) == ((-1, 2), (2, 3))


def test_matrix_entries_are_python_int_literals():
    # a sign, a negative zero, digit separators and tabs, as int() reads them
    assert parse_matrix("1 4\n+3 -0 1_000 -7\n") == ((3, 0, 1000, -7),)
    assert parse_matrix("2 2\n1\t-2\n\t+4 \t 0_5\n") == ((1, -2), (4, 5))


@pytest.mark.parametrize("bad", [
    "", "2\n1 2\n3 4\n", "2 2\n1 2\n", "2 2\n1 2\n3\n", "1 1\nx\n",
    "1 1 1\n1\n", "0 3\n", "3 0\n",
    "1 1\n1.5\n", "1 1\n0x10\n", "1 1\n1e3\n", "1 1\n--1\n",
])
def test_matrix_parse_errors(bad):
    with pytest.raises(cli.MatrixParseError):
        parse_matrix(bad)


def test_partition_worked_example(tmp_path, capsys):
    c = write(tmp_path, "c.txt", ((1, 1), (0, 2)))
    code, out, _ = run_cli(
        capsys, ["partition", "--coupling", c, "--manifold", "lens:2,1", "--json"]
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["phases"] == [["0/1", 3], ["1/2", 1]]
    assert doc["value"]["re"].startswith("2.0")
    assert doc["metadata"]["invariant_factors"] == [2]
    assert doc["metadata"]["normalization_caveat"] is False
    code, out, _ = run_cli(
        capsys, ["partition", "--coupling", c, "--manifold", "lens:2,1"]
    )
    assert code == EXIT_OK
    assert out.splitlines()[:3] == ["phases (num/den multiplicity):", "  0/1 3", "  1/2 1"]


def test_partition_caveat_flag(tmp_path, capsys):
    c = write(tmp_path, "c.txt", ((1,),))
    l = write(tmp_path, "l.txt", ((0,),))
    code, out, _ = run_cli(
        capsys, ["partition", "--coupling", c, "--manifold", l, "--json"]
    )
    assert code == EXIT_OK
    assert json.loads(out)["metadata"]["normalization_caveat"] is True


def test_homology_preset(capsys):
    code, out, _ = run_cli(capsys, ["homology", "--preset", "borromean", "--json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["b1"] == 3
    assert doc["torsion"] == []


def test_homology_requires_exactly_one_input(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["homology"])
    assert code == EXIT_PARSE
    m = write(tmp_path, "m.txt", ((1,),))
    code, _, _ = run_cli(capsys, ["homology", m, "--preset", "borromean"])
    assert code == EXIT_PARSE


def test_linking_form_command(tmp_path, capsys):
    m = write(tmp_path, "m.txt", ((3, 1), (1, 2)))
    code, out, _ = run_cli(capsys, ["linking-form", m, "--json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["factors"] == [5]
    assert len(doc["generators"]) == 1
    num, den = doc["q_mod1"][0][0].split("/")
    assert den == "5"
    code, out, _ = run_cli(capsys, ["linking-form", "--preset", "lens:5,2", "--json"])
    assert json.loads(out)["q_mod1"] == [["3/5"]]  # -2/5 mod 1


def test_linking_form_of_a_singular_matrix_prints_generators_in_its_coordinates(
        tmp_path, capsys):
    l = ((2, 2, 0), (2, 2, 0), (0, 0, 5))
    code, out, _ = run_cli(capsys, ["linking-form", write(tmp_path, "m.txt", l), "--json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert (doc["t"], doc["factors"], doc["q_mod1"]) == (1, [10], [["7/10"]])
    [g] = doc["generators"]
    assert len(g) == 3

    def in_image(x):
        # l y = (2(y1 + y2), 2(y1 + y2), 5 y3)
        return x[0] == x[1] and x[0] % 2 == 0 and x[2] % 5 == 0

    assert in_image([10 * x for x in g])
    assert not in_image([2 * x for x in g]) and not in_image([5 * x for x in g])


@st.composite
def lens_presets(draw):
    p = draw(st.integers(1, 60))
    q = draw(st.integers(-2 * p, 2 * p).filter(lambda q: math.gcd(p, q) == 1))
    return f"lens:{p},{q}"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(symmetric_matrices(singular=True) | symmetric_matrices() | lens_presets())
@example(((2, 0), (0, 2)))  # off-diagonal entries 0/1
@example("lens:7,2")  # the gram entry -2
def test_linking_form_prints_q_mod1_of_integers_over_the_exponent(tmp_path, capsys, arg):
    if isinstance(arg, str):
        form = lens_presentation(*map(int, arg[5:].split(","))).form
    else:
        form, arg = linking_form(arg), write(tmp_path, "m.txt", arg)
    q = form.q
    assert form.modulus == math.lcm(*form.factors)
    assert form.modulus == math.lcm(*(x.denominator for row in q for x in row))
    assert form.q_mod1() == tuple(tuple(x % 1 for x in row) for row in q)
    code, out, _ = run_cli(capsys, ["linking-form", arg, "--json"])
    assert code == EXIT_OK
    assert json.loads(out)["q_mod1"] == [[f"{x.numerator}/{x.denominator}" for x in row]
                                         for row in form.q_mod1()]


def test_a_lens_preset_is_the_pinned_presentation_in_every_slot(capsys):
    # -2/5 mod 1, not the chain's generator-derived 2/5
    code, out, _ = run_cli(capsys, ["linking-form", "lens:5,2", "--json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["q_mod1"] == [["3/5"]] and doc["generators"] is None
    assert run_cli(capsys, ["linking-form", "--preset", "lens:5,2", "--json"]) == (
        code, out, "")


def test_a_matrix_file_is_read_whatever_its_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "lensfile.txt", ((3, 1), (1, 2)))
    write(tmp_path, "other.txt", ((3, 1), (1, 2)))
    for flags in ([], ["--json"]):
        code, out, err = run_cli(capsys, ["linking-form", "--preset", "other.txt", *flags])
        assert code == EXIT_OK and "-1" in out
        assert run_cli(capsys, ["linking-form", "--preset", "lensfile.txt", *flags]) == (
            code, out, err)


@pytest.mark.parametrize("spec, arity", [("hopf:1", 2), ("unknot", 1), ("borromean:1", 0)])
def test_a_wrong_preset_parameter_count_is_a_parse_error(tmp_path, capsys, spec, arity):
    message = f"error: preset {spec.partition(':')[0]!r} takes {arity} parameter(s)\n"
    c = write(tmp_path, "c.txt", ((2,),))
    for argv in (["homology", "--preset", spec], ["linking-form", "--preset", spec],
                 ["partition", "--coupling", c, "--manifold", spec]):
        assert run_cli(capsys, argv) == (EXIT_PARSE, "", message), argv


def test_every_command_refuses_an_asymmetric_linking_matrix_alike(tmp_path, capsys):
    m = write(tmp_path, "m.txt", ((1, 2), (0, 3)))
    c = write(tmp_path, "c.txt", ((2,),))
    message = "error: linking matrix must be symmetric\n"
    for argv in (["homology", m], ["linking-form", m], ["linking-form", "--preset", m],
                 ["partition", "--coupling", c, "--manifold", m]):
        assert run_cli(capsys, argv) == (EXIT_PRECONDITION, "", message), argv


def test_snf_command(tmp_path, capsys):
    m = write(tmp_path, "m.txt", ((3, 1), (1, 2)))
    code, out, _ = run_cli(capsys, ["snf", m, "--json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["invariant_factors"] == [1, 5]
    u, d, v = doc["u"], doc["d"], doc["v"]
    a = doc["input"]
    prod = [[sum(u[i][k] * a[k][l] * v[l][j] for k in range(2) for l in range(2))
             for j in range(2)] for i in range(2)]
    assert prod == d


def test_reciprocity_command(tmp_path, capsys):
    l = write(tmp_path, "l.txt", ((2,),))
    k = write(tmp_path, "k.txt", ((2, 1), (1, 4)))
    code, out, _ = run_cli(capsys, ["reciprocity", "--l", l, "--k", k, "--json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["sigma_k"] == 2
    assert doc["det_k0"] == 7
    assert float(doc["abs_diff"]) < 1e-9
    assert doc["sizes"] == {"m": 1, "n": 2, "r": 1, "s": 2}


def test_kirby_command_one_based(tmp_path, capsys):
    m = write(tmp_path, "m.txt", ((-7,),))
    code, out, _ = run_cli(capsys, ["kirby", m, "--move", "1", "--args", "+1"])
    assert code == EXIT_OK
    assert parse_matrix(out) == ((-7, 0), (0, 1))
    m2 = write(tmp_path, "m2.txt", ((-7, 0), (0, 1)))
    code, out, _ = run_cli(capsys, ["kirby", m2, "--move", "1inv", "--args", "2"])
    assert parse_matrix(out) == ((-7,),)
    m3 = write(tmp_path, "m3.txt", ((-2, 1), (1, -3)))
    code, out, _ = run_cli(capsys, ["kirby", m3, "--move", "2", "--args", "1,2,+1"])
    assert parse_matrix(out) == ((-3, -2), (-2, -3))


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a matrix\n")
    code, _, err = run_cli(capsys, ["snf", str(bad)])
    assert code == EXIT_PARSE and err

    m = write(tmp_path, "m.txt", ((2, 1), (1, 1)))
    code, _, err = run_cli(capsys, ["kirby", m, "--move", "1inv", "--args", "2"])
    assert code == EXIT_PRECONDITION and err

    c = write(tmp_path, "c.txt", ((0, 1), (0, 0)))
    code, _, err = run_cli(
        capsys,
        ["partition", "--coupling", c, "--manifold", "lens:11,1", "--budget", "5"],
    )
    assert code == EXIT_BUDGET and err

    k_odd = write(tmp_path, "k.txt", ((3,),))
    l = write(tmp_path, "l.txt", ((2,),))
    code, _, err = run_cli(capsys, ["reciprocity", "--l", l, "--k", k_odd])
    assert code == EXIT_PRECONDITION and err

    code, _, err = run_cli(capsys, ["homology", "--preset", "trefoil"])
    assert code == EXIT_PARSE and err


def test_snf_json_round_trips_an_entry_beyond_the_int_str_limit(tmp_path, capsys):
    # 5000 digits: beyond Python's default int/str conversion limit of 4300
    digits = "1" + "0" * 4998 + "7"
    m = tmp_path / "m.txt"
    m.write_text(f"1 1\n{digits}\n")
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    before = get_limit() if get_limit else None
    code, out, err = run_cli(capsys, ["snf", str(m), "--json"])
    assert code == EXIT_OK, err
    doc = json.loads(out, parse_int=str)
    assert doc["input"] == [[digits]]
    assert doc["d"] == [[digits]]
    assert doc["invariant_factors"] == [digits]
    if get_limit:
        assert get_limit() == before


def test_budget_env_override(tmp_path, capsys, monkeypatch):
    c = write(tmp_path, "c.txt", ((0, 1), (0, 0)))
    monkeypatch.setenv(cli.BUDGET_ENV, "5")
    code, _, _ = run_cli(
        capsys, ["partition", "--coupling", c, "--manifold", "lens:11,1"]
    )
    assert code == EXIT_BUDGET
    monkeypatch.delenv(cli.BUDGET_ENV)


def test_precision_below_one_bit_is_a_parse_error(tmp_path, capsys):
    c = write(tmp_path, "c.txt", ((1, 1), (0, 2)))
    l = write(tmp_path, "l.txt", ((2,),))
    k = write(tmp_path, "k.txt", ((2, 1), (1, 4)))
    for command in (["partition", "--coupling", c, "--manifold", "lens:5,2"],
                    ["reciprocity", "--l", l, "--k", k]):
        for bits in ("0", "-1000"):
            code, out, err = run_in_process(capsys, command + ["--precision", bits])
            assert (code, out) == (EXIT_PARSE, "")
            assert f"argument --precision: must be at least 1, not {bits}" in err
        code, _, err = run_in_process(capsys, command + ["--precision", "x"])
        assert code == EXIT_PARSE and "argument --precision: invalid int value: 'x'" in err
        assert run_in_process(capsys, command + ["--precision", "1"])[0] == EXIT_OK


def test_budget_must_be_a_non_negative_integer(tmp_path, capsys, monkeypatch):
    c = write(tmp_path, "c.txt", ((0, 1), (0, 0)))
    partition = ["partition", "--coupling", c, "--manifold", "lens:11,1"]
    code, out, err = run_in_process(capsys, partition + ["--budget", "-3"])
    assert (code, out) == (EXIT_PARSE, "")
    assert "argument --budget: must be at least 0, not -3" in err
    assert run_in_process(capsys, partition + ["--budget", "0"])[0] == EXIT_BUDGET
    for value, message in [("abc", "invalid int value: 'abc'"),
                           ("-3", "must be at least 0, not -3")]:
        monkeypatch.setenv(cli.BUDGET_ENV, value)
        code, out, err = run_in_process(capsys, partition)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: ${cli.BUDGET_ENV}: {message}\n"
        # the flag wins over the variable
        assert run_in_process(capsys, partition + ["--budget", "1000"])[0] == EXIT_OK


def test_dual_command(tmp_path, capsys):
    l = write(tmp_path, "l.txt", ((-6,),))
    k = write(tmp_path, "k.txt", ((2, 0), (0, 4)))
    code, out, _ = run_cli(capsys, ["dual", "--l", l, "--k", k, "--json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["dual_linking"] == [[2, 0], [0, 4]]
    assert doc["dual_coupling"] == [[3]]


def test_evenize_transcript_replays_bit_exactly(tmp_path, capsys):
    rng = random.Random(602)
    for trial in range(8):
        m = rand_symmetric(rng, rng.randint(1, 4), -5, 5)
        src = write(tmp_path, f"m{trial}.txt", m)
        code, out, _ = run_cli(capsys, ["evenize", src])
        assert code == EXIT_OK
        matrix_lines = [l for l in out.splitlines() if not l.startswith("#")]
        final_text = "\n".join(matrix_lines) + "\n"
        moves = [l.split(":", 1)[1].split() for l in out.splitlines()
                 if l.startswith("# move:")]
        current = src
        for step, mv in enumerate(moves):
            kind, rest = mv[0], ",".join(mv[1:])
            code, out2, _ = run_cli(
                capsys,
                ["kirby", current, "--move", kind, f"--args={rest}"],
            )
            assert code == EXIT_OK
            nxt = tmp_path / f"m{trial}_step{step}.txt"
            nxt.write_text(out2)
            current = str(nxt)
        replayed = (tmp_path / f"m{trial}_step{len(moves) - 1}.txt").read_text() \
            if moves else format_matrix(m)
        assert replayed == final_text


def test_evenize_refuses_a_huge_output_before_the_first_move(tmp_path, capsys, monkeypatch):
    # framing 100001 would evenize to a 100002x100002 matrix (10^10 entries)
    monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
    m = write(tmp_path, "m.txt", ((100001,),))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["evenize", m, "--json"])
    assert (code, out) == (EXIT_BUDGET, "")
    assert "100002x100002" in err
    assert time.perf_counter() - start < 1.0


def test_output_is_deterministic(tmp_path, capsys):
    c = write(tmp_path, "c.txt", ((1, 1), (0, 2)))
    argv = ["partition", "--coupling", c, "--manifold", "lens:12,5", "--json"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2
    argv = ["reciprocity", "--l", c, "--k", c]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_console_entry_point(tmp_path):
    code, out, _ = run_fresh(["homology", "--preset", "unknot:-5"])
    assert code == 0
    assert "torsion = 5" in out


# sha256 of stdout.  The entries were recorded before the changes their
# comments name, which left every byte alone.  Every entry was re-pinned
# when partition and reciprocity began to print each component correctly
# rounded from the closed form of the sum: only digits within the numeric
# readout's proven bound moved (noise digits of components that are
# exactly 0 became 0, and 0.999... became 1.0), and CANONICAL below holds
# every other byte as recorded before it
HIDDEN_4_12_12 = ((16, 20, 0), (20, 40, -12), (0, -12, 12))  # t(g) diag(4, 12, 12) g
K_10799 = ((4, 0, -9, 10), (0, -16, 3, 9), (-9, 3, 2, -1), (10, 9, -1, -20))
SINGULAR_ODD_L = ((2, 2, 0), (2, 2, 0), (0, 0, 5))
GOLDEN = [
    (["partition", "--json"], ((1, 2), (0, 3)), "lens:2000,3",
     "469f3e5248ee2e13e37d98ed2392666691e53cd720c812bdbf89405751221ba4"),
    (["partition", "--json"], ((1, 0, 2, 0), (1, 2, 0, 1), (0, 1, 1, 0), (2, 0, 1, 3)),
     "lens:16,5", "b8c82f6653c489bcb836204f404c7de56670343347e06c571369cedb9c15af61"),
    (["partition", "--json"], ((1, 2, 0), (0, 1, 3), (1, 0, 2)), "lens:100,7",
     "287a2c060f49cbe011d7efaed4dcc2b26a62158ac57cceb49563eee468673e50"),
    (["partition", "--json"], ((2, 1), (0, 1)), HIDDEN_4_12_12,
     "14c5313cfed80c7da64b2d2d5ad3a42c6e11deefd429e2305a9af57cf379e90e"),
    # even pairs with cokernels Z_419 and Z_431, then Z_1999 and Z_2011
    (["reciprocity", "--json", "--precision", "256"], ((2, 1), (1, 210)), ((2, 1), (1, 216)),
     "c6915940b233ec2bc2596846074a997ab42f69f441b0b480dea54a6f2265ae64"),
    (["reciprocity", "--json", "--precision", "256"], ((2, 1), (1, 1000)), ((-2, 1), (1, -1006)),
     "b99f5a4a6ab2f397b54c46ffb162aa293f557eb42d068aac73c6aa7cd7b120b8"),
    # recorded before the three-multiplication readout: l = (4) against an
    # even 4x4 k with cokernel Z_10799 (5,445 distinct phases), then the
    # dual theory, coupling (-2) from `dual` on the manifold k (5,400)
    (["reciprocity", "--json", "--precision", "256"], ((4,),), K_10799,
     "3366231255c5e2a6e90a38c68aefd2cc41c9415cea000f0e5c789cbb5190ffc0"),
    (["partition", "--json"], ((-2,),), K_10799,
     "37632a2494c388264c039f621f1b33612c9d7555bcd6bae840636aa6cd4cd49a"),
    # recorded while reciprocity still split off the nonsingular blocks:
    # a singular odd l against a nonsingular k, then singular even l and k,
    # then singular odd l against singular k
    (["reciprocity", "--json", "--precision", "256"], SINGULAR_ODD_L, ((2, 1), (1, 2)),
     "62f5205e5a9084b2de97bf6515c05b0ac5a40e155642c32566eea107dc4ff6f5"),
    (["reciprocity", "--json", "--precision", "256"], ((2, -2), (-2, 2)), ((0, 0), (0, 4)),
     "123d415b857ca89e8807cbb7660c303cdcbd0242070cdbff7c05282b4fdd15e3"),
    (["reciprocity", "--json", "--precision", "256"], SINGULAR_ODD_L, ((0, 0), (0, 4)),
     "4e7874fb632e70911a5025deb845995e016776f25baaa90f41fd5d2e87e80e13"),
    # text mode, recorded while its phase lines were read from the JSON
    # document's phase list
    (["partition"], ((-2,),), K_10799,
     "48eea6ec729d1f55c762e9aeeae55386a15e0adff35fd74a6b6f771f02c115a2"),
    (["partition"], ((1, 2, 0), (0, 1, 3), (1, 0, 2)), "lens:100,7",
     "b759d4d8f768d04ef53073e8bc3c0e5f81d987a2fdfe784120b98728c2c9615f"),
]


def run_golden(tmp_path, capsys, argv, a, b):
    if argv[0] == "partition":
        manifold = b if isinstance(b, str) else write(tmp_path, "m.txt", b)
        argv = argv + ["--coupling", write(tmp_path, "c.txt", a), "--manifold", manifold]
    else:
        argv = argv + ["--l", write(tmp_path, "l.txt", a), "--k", write(tmp_path, "k.txt", b)]
    code, out, _ = run_cli(capsys, argv)
    assert code == EXIT_OK
    return out


@pytest.mark.parametrize("argv, a, b, digest", GOLDEN, ids=range(len(GOLDEN)))
def test_output_bytes_are_pinned(tmp_path, capsys, argv, a, b, digest):
    out = run_golden(tmp_path, capsys, argv, a, b)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of each GOLDEN entry's stdout without its readout, recorded before
# the baby-step/giant-step readout: every byte outside the printed values
# (phase lists, invariants, metadata) stays as it was
READOUT_FIELDS = ("value", "lhs", "rhs", "abs_diff")
READOUT_LINES = ("value = ", "lhs = ", "rhs = ", "|lhs - rhs| = ")
CANONICAL = [
    "9be2f3ee2c0799991cab72fc241bac3a786a63847f4d9cebeac2643bf11d46b0",
    "26441583168aa107d922500e11250da388b9db809de457d90d9f4fb9eda2ab6c",
    "d47a7946b0db7d209859dc9cb3687c0c1d1dd51571ea856fa5dde79420f90279",
    "b2d2bf3565abcaeb96feaf205197ecfb5e3c966220f44134d04df90c282c74cc",
    "689744b50951e1c00c15e3fea9101fc02d63958d0505940bd916166a0224b714",
    "2f37ed6e1dfc99466b97f9c4bc32284d5700e31c80eeca7450b45a55232299ca",
    "71e05360f7e0f9024171d023253d0bc17404c2fe19714f81e0dd109c703af506",
    "4fae0dcf905e7ed1c8420507f0d14cfb5b4303bc9c7d6af79e124699eec91c26",
    "5ab9eff5c0a6ad9571fba532a8fd2fb3ef2ceb93060045726b39f3ba1e479fde",
    "32aa5a00b5c55b794dd1c8aa8be28cddba4caa4def6c92886f620b162ae58d09",
    "eb2b312698e000ffd74b89f4063412713ad7cf1d3cc6c39446c1b989a30f0d77",
    "dea56b758eb2fda19e07f863177bfd5b48fbfef3832596d07c38b605c7499ae6",
    "a1ad380c59f0e7e7ccd1791b67b90a1f83379609ecdb98f6c1afcb137e518613",
]


def without_readout(argv, out):
    """stdout with the JSON fields or the text lines of the numeric readout
    removed."""
    if "--json" in argv:
        doc = json.loads(out)
        for field in READOUT_FIELDS:
            doc.pop(field, None)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith(READOUT_LINES))


@pytest.mark.parametrize("entry, digest", list(zip(GOLDEN, CANONICAL)),
                         ids=range(len(GOLDEN)))
def test_output_bytes_outside_the_readout_are_pinned(tmp_path, capsys, entry, digest):
    argv, a, b, _ = entry
    out = run_golden(tmp_path, capsys, argv, a, b)
    assert out != without_readout(argv, out)
    assert hashlib.sha256(without_readout(argv, out).encode()).hexdigest() == digest


def test_partition_and_reciprocity_read_no_sum_out_numerically(tmp_path, capsys, monkeypatch):
    # every GOLDEN value comes from the closed form of its sum, so neither
    # eval_numeric nor a per-phase transcendental runs on the CLI path
    from mpmath import mp

    from surgeryinv import gauss

    def refuse(*args, **kwargs):
        raise AssertionError("a sum was read out numerically")

    original = gauss.eval_numeric
    for module in [m for n, m in sys.modules.items() if n.startswith("surgeryinv")]:
        if getattr(module, "eval_numeric", None) is original:
            monkeypatch.setattr(module, "eval_numeric", refuse)
    # mpmath is imported when a value is rounded, so refuse on the shared context
    monkeypatch.setattr(mp, "expjpi", refuse)
    for argv, a, b, digest in GOLDEN:
        out = run_golden(tmp_path, capsys, argv, a, b)
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_an_exact_zero_component_prints_as_zero(tmp_path, capsys):
    # the value is 7 + 0i; the numeric readout printed noise for the 0
    from mpmath import mp

    c = write(tmp_path, "c.txt", ((1, 1), (0, 1)))
    code, out, _ = run_cli(capsys, ["partition", "--json", "--coupling", c,
                                    "--manifold", "lens:7,2"])
    assert code == EXIT_OK
    value = json.loads(out)["value"]
    assert value == {"re": cli._num_str(mp.mpf(7), 128), "im": cli._num_str(mp.mpf(0), 128)}
    assert value["im"] == "0.0"


@settings(max_examples=300, deadline=None)
@given(st.integers(-2**300, 2**300), st.integers(-400, 400), st.integers(1, 1000))
def test_num_str_prints_what_mp_nstr_prints(man, exp, precision):
    # partition passes pairs (man, exp) and reciprocity mpf numbers; both
    # print as mp.nstr prints the number rounded to `precision` bits
    from mpmath import mp
    from mpmath.libmp import from_man_exp

    x = mp.make_mpf(from_man_exp(man, exp))  # exact, not rounded to mp.prec
    with mp.workprec(precision):
        want = mp.nstr(+x, cli._decimal_places(precision))
    assert cli._num_str((man, exp), precision) == cli._num_str(x, precision) == want


def mpmath_rounded(x, precision):
    """The mpmath number x, computed at twice `precision`, as the CLI prints
    it once rounded to `precision` bits."""
    from mpmath import mp

    with mp.workprec(precision):
        return cli._num_str(+x, precision)


@pytest.mark.parametrize("entry", GOLDEN, ids=range(len(GOLDEN)))
def test_printed_components_are_mpmath_at_twice_the_precision_rounded(tmp_path, capsys,
                                                                      entry):
    # the exact values from the closed form of each sum, with the scalars
    # of the identity applied by mpmath at twice the precision
    from mpmath import mp

    from surgeryinv import gauss
    from surgeryinv.exactmat import signature

    argv, a, b, _ = entry
    out = run_golden(tmp_path, capsys, argv, a, b)
    precision = int(argv[argv.index("--precision") + 1]) if "--precision" in argv else 128

    def rounded(value, scale, eighth):
        with mp.workprec(2 * precision):
            z = (mp.sqrt(mp.mpf(value.norm.numerator) / value.norm.denominator) * scale
                 * mp.expjpi(mp.mpf(value.eighth + eighth) / 4))
        return {"re": mpmath_rounded(z.real, precision),
                "im": mpmath_rounded(z.imag, precision)}

    if argv[0] == "partition":
        matrix, lens = cli.load_manifold(b) if isinstance(b, str) else (b, None)
        value = gauss.partition_function(a, lens or presentation(matrix))._value
        want = {"value": rounded(value, 1, 0)}
    else:
        man_l, man_k = presentation(a), presentation(b)
        m, n = len(a), len(b)
        r, s = m - man_l.b1, n - man_k.b1
        with mp.workprec(2 * precision):
            lhs_scale = mp.power(man_k.torsion.order, -(mp.mpf(m) - mp.mpf(r) / 2))
            rhs_scale = mp.power(man_l.torsion.order, -(mp.mpf(n) - mp.mpf(s) / 2))
        want = {
            "lhs": rounded(gauss._gauss_value(a, man_k.form, None), lhs_scale, 0),
            "rhs": rounded(gauss._gauss_value(signed(b, -1), man_l.form, None), rhs_scale,
                           signature(a) * signature(b)),
        }
    if "--json" in argv:
        doc = json.loads(out)
        assert {field: doc[field] for field in want} == want
        if argv[0] == "reciprocity":
            assert doc["lhs"] == doc["rhs"] and doc["abs_diff"] == "0.0"
    else:
        assert f"value = {want['value']['re']} + {want['value']['im']} i\n" in out


# Every in-process caller shares one parser: these tests check that reusing
# it changes nothing a fresh process would print.

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def run_fresh(argv):
    """(exit code, stdout, stderr) of argv in a new interpreter, with the
    current environment."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "surgeryinv", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    return proc.returncode, proc.stdout, proc.stderr


IMPORT_PROBE = """
import contextlib, hashlib, io, json, sys
import surgeryinv
from surgeryinv import cli, exactmat

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()

kernel, partition = json.loads(sys.argv[1])
codes = [run(argv)[0] for argv in kernel]
loaded = [name for name in ("mpmath", "surgeryinv.gauss", "surgeryinv.reciprocity",
                            "dataclasses", "fractions") if name in sys.modules]
pinned = run(partition)
from surgeryinv import gauss
print(json.dumps({
    "codes": codes, "loaded": loaded, "partition": pinned,
    "missing": [n for n in surgeryinv.__all__ if not hasattr(surgeryinv, n)],
    "one_budget": surgeryinv.BudgetExceededError is gauss.BudgetExceededError
                  is getattr(exactmat, "BudgetExceededError", None),
}))
"""


def test_kernel_commands_load_no_gauss_sum_code(tmp_path):
    m = write(tmp_path, "m.txt", ((3, 1, 0), (1, 2, 1), (0, 1, -5)))
    kernel = [[command, m, *flags] for command in ("snf", "homology", "linking-form",
                                                   "evenize")
              for flags in ([], ["--json"])]
    kernel += [["homology", "--preset", "lens:7,2"], ["linking-form", "--preset", "lens:7,2"],
               ["kirby", m, "--move", "2", "--args", "1,2,+1", "--json"]]
    argv, a, b, digest = GOLDEN[1]
    partition = argv + ["--coupling", write(tmp_path, "c.txt", a), "--manifold", b]
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE,
                           json.dumps([kernel, partition])],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=path))
    got = json.loads(proc.stdout)
    assert got["codes"] == [EXIT_OK] * len(kernel)
    assert got["loaded"] == []
    assert got["partition"] == [EXIT_OK, digest]
    assert got["missing"] == [] and got["one_budget"]


# One engine pass per partition: the phase list and the value come from one
# split of each block

ONE_PASS_PARTITIONS = [entry for entry in GOLDEN if entry[0][0] == "partition"] + [
    (["partition", "--json"], ((1, 1), (0, 1)), "lens:7,2", None),
    (["partition", "--json"], ((2, 1), (0, 3)), ((2, 0, 0), (0, 6, 0), (0, 0, 0)), None),
    (["partition", "--json"], ((1,),), ((12,),), None),
]


def test_partition_splits_each_block_once(tmp_path, capsys, monkeypatch):
    from surgeryinv import gauss

    calls = {"partition_function": 0, "_engine_blocks": 0, "_block_summands": 0}
    blocks = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if name == "_engine_blocks":
                blocks.append(len(result[1]))
            return result
        return wrapper

    for name in calls:
        monkeypatch.setattr(gauss, name, counted(name, getattr(gauss, name)))
    for argv, a, b, digest in ONE_PASS_PARTITIONS:
        calls.update(dict.fromkeys(calls, 0))
        blocks.clear()
        out = run_golden(tmp_path, capsys, argv, a, b)
        if digest is not None:
            assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert calls["partition_function"] == calls["_engine_blocks"] == 1
        assert calls["_block_summands"] == blocks[0]
    assert blocks == [2]  # the last manifold, Z_12, has a 2-block and a 3-block


PUBLIC_NAMES = [
    "BlockDecomposition", "BudgetExceededError", "ComplexValue", "CyclotomicSum",
    "DEFAULT_TERM_BUDGET", "DualTheory", "Group", "HomologySummary", "LinkingForm",
    "ManifoldPresentation", "ReciprocityReport", "SnfResult", "TorsionGroup",
    "apply_move", "block_decompose", "borromean", "chat_from_even", "conjugate",
    "coset_representatives", "coupling_to_even", "cs_dual", "det_int", "eval_numeric",
    "evenize", "first_homology", "full_homology", "gauss_sum_over_lattice", "hopf",
    "identity", "int_inverse", "is_even_symmetric", "is_symmetric", "kirby1",
    "kirby1_inverse", "kirby2", "lens_chain", "lens_presentation", "linking_form",
    "linking_form_with_generators", "mat", "mat_mul", "partition_function",
    "presentation", "preset", "rat_inverse", "reciprocity_sides",
    "signature", "smith_normal_form", "transpose", "unknot",
]


def test_public_surface_is_pinned():
    # a name joins or leaves the package surface only by editing this list
    import surgeryinv

    assert surgeryinv.__all__ == PUBLIC_NAMES
    assert all(hasattr(surgeryinv, name) for name in PUBLIC_NAMES)


def test_phase_mod1_left_the_library():
    # a CyclotomicSum is built from integer keys over a modulus, so nothing
    # reduces rational phases any more
    import surgeryinv
    from surgeryinv import gauss

    for module in (surgeryinv, gauss):
        with pytest.raises(AttributeError):
            module.phase_mod1


def test_dual_loads_the_engine_and_no_mpmath(tmp_path):
    # dual rounds no value: it loads the Gauss-sum engine, through the
    # reciprocity module, and not mpmath
    l = write(tmp_path, "l.txt", ((2,),))
    k = write(tmp_path, "k.txt", ((2, 1), (1, 4)))
    probe = ("import sys\nfrom surgeryinv import cli\ncode = cli.main(sys.argv[1:])\n"
             "print(code, 'mpmath' in sys.modules, 'surgeryinv.gauss' in sys.modules,"
             " file=sys.stderr)")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe, "dual", "--l", l, "--k", k],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.stderr.split() == [str(EXIT_OK), "False", "True"]


def run_in_process(capsys, argv):
    """Like run_cli, but an argparse exit (usage error, --help) is a result."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fresh_parser():
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch, fresh_parser):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    m = write(tmp_path, "m.txt", ((3, 1), (1, 2)))
    c = write(tmp_path, "c.txt", ((1,),))
    k = write(tmp_path, "k.txt", ((2,),))
    argvs = [
        ["snf", m], ["homology", m], ["homology", "--preset", "lens:5,2"],
        ["linking-form", m, "--json"], ["partition", "--coupling", c, "--manifold", m],
        ["reciprocity", "--l", c, "--k", k], ["kirby", m, "--move", "1", "--args", "-1"],
        ["evenize", m], ["dual", "--l", write(tmp_path, "l.txt", ((-6,),)), "--k", k],
        ["snf", m, "--json"], ["homology"], ["partition", "--coupling", c],
    ]
    codes = [run_in_process(capsys, argv)[0] for argv in argvs]
    assert codes == [EXIT_OK] * 10 + [EXIT_PARSE, 2]
    # the top-level parser and one per command, all from the first call
    assert built.count("surgeryinv") == 1
    assert len(built) == 9


def test_repeated_commands_print_what_a_fresh_process_prints(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    c = write(tmp_path, "c.txt", ((0, 1), (0, 0)))
    m = write(tmp_path, "m.txt", ((2, 1, 0), (1, -3, 1), (0, 1, 4)))
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "lensfile.txt", ((3, 1), (1, 2)))
    partition = ["partition", "--coupling", c, "--manifold", "lens:11,1"]
    steps = [
        partition + ["--budget", "1000"],
        ["evenize", m],
        "budget env",
        partition,
        ["homology", "--preset", "borromean"],
        ["homology", m],
        ["partition", "--coupling", c, "--json"],
        ["snf", m, "--json"],
        partition + ["--budget", "5"],
        ["linking-form", "--help"],
        # the variable holds evenize's output to 5 entries too
        ["evenize", m],
        ["linking-form", "lens:5,2", "--json"],
        ["linking-form", "--preset", "lens:5,2", "--json"],
        ["linking-form", "--preset", "lensfile.txt"],
        ["homology", "--preset", "hopf:1"],
        ["linking-form", "--preset", "unknot"],
        ["partition", "--coupling", c, "--manifold", "borromean:1"],
    ]
    codes = []
    for argv in steps:
        if argv == "budget env":
            monkeypatch.setenv(cli.BUDGET_ENV, "5")
            continue
        got = run_in_process(capsys, argv)
        assert got == run_fresh(argv), argv
        codes.append(got[0])
    assert codes == [EXIT_OK, EXIT_OK, EXIT_BUDGET, EXIT_OK, EXIT_OK, 2, EXIT_OK,
                     EXIT_BUDGET, 0, EXIT_BUDGET, EXIT_OK, EXIT_OK, EXIT_OK,
                     EXIT_PARSE, EXIT_PARSE, EXIT_PARSE]


def test_commands_reach_helpers_through_module_globals(tmp_path, capsys, monkeypatch):
    m = write(tmp_path, "m.txt", ((3, 1), (1, 2)))
    assert run_cli(capsys, ["snf", m])[0] == EXIT_OK
    seen = []
    emit, load = cli._emit, cli.load_matrix

    def spy_emit(doc, lines, args):
        seen.append(doc["command"])
        emit(doc, lines, args)

    def spy_load(path):
        seen.append(path)
        return load(path)

    monkeypatch.setattr(cli, "_emit", spy_emit)
    monkeypatch.setattr(cli, "load_matrix", spy_load)
    code, out, _ = run_cli(capsys, ["homology", m])
    assert code == EXIT_OK and out.startswith("b1 = 0")
    code, out, _ = run_cli(capsys, ["snf", m, "--json"])
    assert code == EXIT_OK and json.loads(out)["invariant_factors"] == [1, 5]
    assert seen == [m, "homology", m, "snf"]


@st.composite
def int_matrices(draw):
    """A list or tuple of equal-length int rows up to 6 x 6, as the commands
    print matrices, or one with a bool in a row or an empty row, which the
    writer takes down its general path."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    entries = st.integers(-9, 9) | st.integers(-2**400, 2**400)
    m = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    flaw = draw(st.sampled_from([None, None, "bool", "empty row"]))
    i = draw(st.integers(0, rows - 1))
    if flaw == "bool":
        m[i][draw(st.integers(0, cols - 1))] = draw(st.booleans())
    elif flaw == "empty row":
        m[i] = []
    return draw(st.sampled_from([list, tuple]))(
        [draw(st.sampled_from([list, tuple]))(row) for row in m])


json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**400, 2**400) | st.text()
    | int_matrices(),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_documents)
def test_dumps_equals_json_dumps_with_indent(doc):
    assert cli._dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


@st.composite
def phase_sums(draw):
    """A sum over integer keys, as the engine builds it, or the same phases
    given to phase_sum."""
    modulus = draw(st.sampled_from([1, 2, 12, 2 * 3**5]) | st.integers(1, 2**200))
    counts = draw(st.dictionaries(st.integers(0, modulus - 1),
                                  st.integers(-10**30, 10**30).filter(bool), max_size=30))
    s = CyclotomicSum(counts, modulus)
    return phase_sum(s.items()) if draw(st.booleans()) else s


@settings(max_examples=300, deadline=None)
@given(phase_sums() | st.just(CyclotomicSum({0: 1}, 1)) | st.just(CyclotomicSum({}, 1)),
       st.lists(st.tuples(st.booleans(), json_documents, st.text(max_size=6)), max_size=3))
def test_dumps_writes_a_phase_list_as_json_dumps_writes_the_fraction_list(s, nesting):
    # the phase list at top level, or nested in lists and dicts beside
    # other values, against the list of "num/den" strings read off Fractions
    doc = cli._phases_doc(s)
    want = [[f"{p.numerator}/{p.denominator}", m] for p, m in s.items()]
    for in_dict, sibling, key in nesting:
        if in_dict:
            doc, want = {key: doc, "~" + key: sibling}, {key: want, "~" + key: sibling}
        else:
            doc, want = [sibling, doc], [sibling, want]
    assert cli._dumps(doc) == json.dumps(want, indent=2, sort_keys=True)


def test_every_json_document_is_what_json_dumps_writes(tmp_path, capsys):
    m = write(tmp_path, "m.txt", ((3, 1, 0), (1, 2, 1), (0, 1, -5)))
    unimodular = write(tmp_path, "u.txt", ((1,),))
    c = write(tmp_path, "c.txt", ((1, 1), (0, 2)))
    k = write(tmp_path, "k.txt", ((2, 1), (1, 4)))
    l = write(tmp_path, "l.txt", ((-6,),))
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    saved = get_limit() if get_limit else None
    if get_limit:
        sys.set_int_max_str_digits(0)
    try:
        # 5000 digits: beyond Python's default int/str conversion limit of 4300
        big = write(tmp_path, "big.txt", ((10**4999 + 7,),))
        argvs = [
            ["snf", m], ["snf", big],
            ["homology", m], ["homology", "--preset", "lens:7,2"],
            ["homology", "--preset", "borromean"], ["homology", big],
            ["linking-form", m], ["linking-form", "--preset", "lens:5,2"],
            ["linking-form", unimodular], ["linking-form", big],
            ["partition", "--coupling", c, "--manifold", "lens:12,5"],
            ["partition", "--coupling", unimodular, "--manifold", unimodular],
            ["partition", "--coupling", unimodular, "--manifold", "unknot:0"],
            ["reciprocity", "--l", unimodular, "--k", k],
            ["kirby", m, "--move", "2", "--args", "1,2,+1"],
            ["kirby", big, "--move", "1", "--args", "-1"],
            ["evenize", m], ["dual", "--l", l, "--k", k],
        ]
        for argv in argvs:
            code, out, err = run_cli(capsys, argv + ["--json"])
            assert (code, err) == (EXIT_OK, ""), argv
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv
    finally:
        if get_limit:
            sys.set_int_max_str_digits(saved)


# sha256 of the help text at COLUMNS=80, recorded with a parser built once
# per command; argparse lays help out differently across Python versions
HELP_DIGESTS = {
    None: "03913a7c3fda5bb03e936998462a5acb2995d895279fe79d6025c99caef4f88c",
    "snf": "b2aa87a3f9fe9a53a6ff95708b21fd926f53533bf931d86f0b8f270b6f8df552",
    "homology": "59976a9d087feaa3c7dc76d8b74f4c8a05f8edf01da5feb1b9707605b37497ed",
    "linking-form": "906a955d88bf21b63d175d28d00fb938f9880b1d0e8914aad9ce4bc87359f6d0",
    "partition": "460ee8da8e6119bb20e30edef6ce6cdbc975b82b86b7c25bbcb9741a9fab0dd8",
    "reciprocity": "99582822b3ffabe5756af0c33c2c3eff2950cccacf4f69a92459e49deffca955",
    "kirby": "c9d0ba725e60b3c472e17e9d5d4528b57ac163c6b8f88babdbafce7262e1f028",
    "evenize": "b6e49311d5d291ea9da8202bd4d47cf2cf55eb344fc38ee8a6ce6c7b3479e6d5",
    "dual": "2c933748148d7113b3a62bab60cb9b1611aac4bd432c57f54b20bc1006848b28",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="help digests were recorded with CPython 3.11's argparse")
@pytest.mark.parametrize("command", list(HELP_DIGESTS), ids=str)
def test_help_text_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"] if command else ["--help"]
    code, out, err = run_fresh(argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[command]
    # twice in this process, through the parser every command shares
    for _ in range(2):
        assert run_in_process(capsys, argv) == (code, out, err)
