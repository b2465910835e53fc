import hashlib
import json
import random
import subprocess
import sys

import pytest

from surgeryinv import cli
from surgeryinv.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    format_matrix,
    parse_matrix,
)
from helpers import rand_symmetric


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


def test_matrix_parse_accepts_comments_and_blank_lines():
    text = "# linking matrix\n\n2 2\n# rows follow\n-1 2\n 2  3 \n"
    assert parse_matrix(text) == ((-1, 2), (2, 3))


@pytest.mark.parametrize("bad", [
    "", "2\n1 2\n3 4\n", "2 2\n1 2\n", "2 2\n1 2\n3\n", "1 1\nx\n",
    "1 1 1\n1\n",
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
    proc = subprocess.run(
        [sys.executable, "-m", "surgeryinv", "homology", "--preset", "unknot:-5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "torsion = 5" in proc.stdout


# sha256 of stdout, recorded before the Jordan block path replaced block
# enumeration: the path must not change a byte of the output
HIDDEN_4_12_12 = ((16, 20, 0), (20, 40, -12), (0, -12, 12))  # t(g) diag(4, 12, 12) g
GOLDEN = [
    (["partition", "--json"], ((1, 2), (0, 3)), "lens:2000,3",
     "eac146f010bdefd006d301d24c9fb6a679b916e7e601c3dbacad6254c9bb1211"),
    (["partition", "--json"], ((1, 0, 2, 0), (1, 2, 0, 1), (0, 1, 1, 0), (2, 0, 1, 3)),
     "lens:16,5", "836cab066aef6744849ed0f733da2b2d533ca1e1350172b8053b3a770bfd23fe"),
    (["partition", "--json"], ((1, 2, 0), (0, 1, 3), (1, 0, 2)), "lens:100,7",
     "3acba387e2bbd7215973461070a6c5e936e812795ac01684f070b2d01e8b950e"),
    (["partition", "--json"], ((2, 1), (0, 1)), HIDDEN_4_12_12,
     "87a322ff0fd248535770cbca5b797fe2153f5ed072b2217ec36b489c057613c9"),
    # even pairs with cokernels Z_419 and Z_431, then Z_1999 and Z_2011
    (["reciprocity", "--json", "--precision", "256"], ((2, 1), (1, 210)), ((2, 1), (1, 216)),
     "592137e80d6ac87990af8fc05a8cc4d3477792fcfcffa0f99a90cb92b15ae881"),
    (["reciprocity", "--json", "--precision", "256"], ((2, 1), (1, 1000)), ((-2, 1), (1, -1006)),
     "257c3dc025320554330bf9363caeb06831b7dc4ece0569c149fae39f9f98280e"),
]


@pytest.mark.parametrize("argv, a, b, digest", GOLDEN, ids=range(len(GOLDEN)))
def test_output_bytes_are_pinned(tmp_path, capsys, argv, a, b, digest):
    if argv[0] == "partition":
        manifold = b if isinstance(b, str) else write(tmp_path, "m.txt", b)
        argv = argv + ["--coupling", write(tmp_path, "c.txt", a), "--manifold", manifold]
    else:
        argv = argv + ["--l", write(tmp_path, "l.txt", a), "--k", write(tmp_path, "k.txt", b)]
    code, out, _ = run_cli(capsys, argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest
