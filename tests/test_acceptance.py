"""Acceptance suite: one test per release criterion, at its stated
tolerance, each printing a PASS/FAIL line (visible with pytest -s)."""

import cmath
import functools
import math
import random
import time
from fractions import Fraction

from mpmath import mp

from surgeryinv.exactmat import (
    det_int,
    diagonal,
    mat_mul,
    smith_normal_form,
    signature,
)
from surgeryinv.gauss import (
    BudgetExceededError,
    conjugate,
    eval_numeric,
    gauss_sum_over_lattice,
    partition_function,
)
from surgeryinv.homology import first_homology, lens_presentation, presentation
from surgeryinv.reciprocity import reciprocity_sides
from surgeryinv.surgery import apply_move, borromean, evenize, hopf, unknot
from surgeryinv.cli import format_matrix
from helpers import (
    brute_radical_terms,
    phase_sum,
    rand_even_symmetric,
    rand_int_matrix,
    rand_symmetric,
    rank,
)

TOL = 1e-9


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {name}")
                raise
            print(f"[PASS] {name}")
        return wrapper
    return deco


def zvalue(c, man, budget=None):
    return complex(eval_numeric(partition_function(c, man, budget=budget)))


@criterion("worked example: Z(L(2,1), K=[[2,1],[1,4]]) = 1-1+1+1 = 2, under 1 ms")
def test_example2_partition_function():
    man = lens_presentation(2, 1)
    c = ((1, 1), (0, 2))
    z = partition_function(c, man)
    assert z == phase_sum({Fraction(0): 3, Fraction(1, 2): 1})
    assert abs(complex(eval_numeric(z)) - 2.0) < 1e-12
    best = min(
        _timed(lambda: partition_function(c, man)) for _ in range(20)
    )
    assert best < 1e-3, f"partition function took {best:.2e} s"


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


@criterion("worked example: dual sum over Z^2/KZ^2 equals i*sqrt(7)")
def test_example2_dual_sum():
    g = gauss_sum_over_lattice(((2,),), ((2, 1), (1, 4)), +1)
    v = eval_numeric(g, 128)
    with mp.workprec(192):
        err = mp.hypot(v.re, v.im - mp.sqrt(7))
        assert err < mp.mpf(1e-9)


@criterion("worked example: reciprocity for L=(2), K=[[2,1],[1,4]]")
def test_example2_reciprocity():
    report = reciprocity_sides(((2,),), ((2, 1), (1, 4)))
    assert report.sigma_k == 2
    assert report.det_k0 == 7
    assert report.abs_diff == 0 and report.lhs == report.rhs


@criterion("BF closed form: Z = p*gcd(k,p) for p<=20, k<=20, under 10 s")
def test_example3_bf_closed_form():
    t0 = time.perf_counter()
    for p in range(1, 21):
        for q in range(1, p + 1):
            if math.gcd(p, q) != 1:
                continue
            man = lens_presentation(p, q)
            for k in range(0, 21):
                z = zvalue(((0, k), (0, 0)), man)
                assert abs(z - p * math.gcd(k, p)) < TOL, (p, q, k, z)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"BF sweep took {elapsed:.1f} s"


@criterion("200 random reciprocity pairs, both sides equal exactly, under 60 s")
def test_randomized_reciprocity_suite():
    rng = random.Random(2024)
    t0 = time.perf_counter()
    done = 0
    while done < 200:
        a = rng.randint(1, 3)
        b = rng.randint(1, 3)
        l = rand_symmetric(rng, a, -6, 6)
        k = rand_even_symmetric(rng, b, -6, 6)
        try:
            report = reciprocity_sides(l, k, budget=200_000)
        except BudgetExceededError:
            continue
        done += 1
        assert report.abs_diff == 0 and report.lhs == report.rhs, (l, k, report)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"reciprocity suite took {elapsed:.1f} s"


def _random_move(rng, l):
    n = len(l)
    choices = ["k1", "k2"] if n >= 2 else ["k1"]
    removable = [
        i for i in range(n)
        if l[i][i] in (1, -1) and all(l[i][j] == 0 for j in range(n) if j != i)
    ]
    if removable and n > 1:
        choices.append("k1inv")
    kind = rng.choice(choices)
    if kind == "k1":
        return ("1", rng.choice([1, -1]))
    if kind == "k1inv":
        return ("1inv", rng.choice(removable))
    i0, j0 = rng.sample(range(n), 2)
    return ("2", i0, j0, rng.choice([1, -1]))


@criterion("Kirby moves leave Z and (b1, invariant factors) unchanged, 100 cases")
def test_kirby_invariance_suite():
    rng = random.Random(2025)
    done = 0
    while done < 100:
        size = rng.randint(1, 3)
        l = rand_symmetric(rng, size, -4, 4)
        nc = rng.randint(1, 2)
        man = presentation(l)
        if man.form.order**nc > 100_000:
            continue
        done += 1
        c = rand_int_matrix(rng, nc, nc, -3, 3)
        s0 = partition_function(c, man)
        z0 = complex(eval_numeric(s0))
        hom0 = first_homology(l)
        cur = l
        for _ in range(5):
            cur = apply_move(cur, _random_move(rng, cur))
        assert first_homology(cur) == hom0
        s1 = partition_function(c, presentation(cur))
        assert s1 == s0, (l, cur, s0, s1)
        z1 = complex(eval_numeric(s1))
        assert abs(z0 - z1) < TOL, (l, cur, z0, z1)


@criterion("evenize: even diagonal, homology and Z preserved, replayable, 100 cases")
def test_evenize_suite():
    rng = random.Random(2026)
    for _ in range(100):
        size = rng.randint(1, 4)
        l = rand_symmetric(rng, size, -5, 5)
        out, transcript = evenize(l)
        assert all(out[i][i] % 2 == 0 for i in range(len(out)))
        assert first_homology(out) == first_homology(l)

        man = presentation(l)
        nc = 1 if man.form.order > 316 else 2
        c = rand_int_matrix(rng, nc, nc, -3, 3)
        s0 = partition_function(c, man)
        s1 = partition_function(c, presentation(out))
        assert s1 == s0, (l, out, s0, s1)
        z0, z1 = complex(eval_numeric(s0)), complex(eval_numeric(s1))
        assert abs(z0 - z1) < TOL, (l, out, z0, z1)

        replay = l
        for move in transcript:
            replay = apply_move(replay, move)
        assert replay == out
        assert format_matrix(replay) == format_matrix(out)


@criterion("SNF certificates on 500 matrices; signature matches eigenvalue "
           "oracle on 200")
def test_snf_and_signature_certificates():
    import numpy as np

    rng = random.Random(2027)
    for _ in range(500):
        rows = rng.randint(0, 6)
        cols = rng.randint(0, 6)
        a = rand_int_matrix(rng, rows, cols, -9, 9)
        snf = smith_normal_form(a)
        assert snf.d == mat_mul(snf.u, mat_mul(a, snf.v))
        assert abs(det_int(snf.u)) == 1
        assert abs(det_int(snf.v)) == 1
        d = diagonal(snf.d)
        assert all(x >= 0 for x in d)
        for x, y in zip(d, d[1:]):
            assert (x == 0 and y == 0) or (x != 0 and y % x == 0)

    for _ in range(200):
        n = rng.randint(1, 6)
        a = rand_symmetric(rng, n, -9, 9)
        r = rank(a)
        eig = sorted(np.linalg.eigvalsh(np.array(a, dtype=float)), key=abs)
        oracle = sum(1 if x > 0 else -1 for x in eig[n - r:])
        assert signature(a) == oracle, a


@criterion("preset homology: unknot(-p) -> Z_p, hopf(-p,-q) -> Z_{pq-1}, "
           "borromean -> b1 = 3")
def test_preset_homology():
    for p in range(2, 13):
        b1, torsion = first_homology(unknot(-p))
        assert b1 == 0 and torsion.factors == (p,)
    b1, torsion = first_homology(unknot(-1))
    assert b1 == 0 and torsion.factors == ()
    for p in range(1, 7):
        for q in range(1, 7):
            b1, torsion = first_homology(hopf(-p, -q))
            if p * q == 1:
                # L(0, 1) is S^1 x S^2: free homology, no torsion
                assert b1 == 1 and torsion.factors == ()
            else:
                assert b1 == 0
                expect = (p * q - 1,) if p * q - 1 >= 2 else ()
                assert torsion.factors == expect
    b1, torsion = first_homology(borromean())
    assert b1 == 3 and torsion.factors == ()


@criterion("homotopy equivalent lens spaces: q1 q2 = +-l^2 (mod p) gives equal "
           "or conjugate Z, p <= 25")
def test_lens_homotopy_invariance():
    rng = random.Random(2028)
    k_fixed = rand_even_symmetric(rng, 2, -4, 4)
    c_fixed = tuple(
        tuple(k_fixed[i][j] if i < j else (k_fixed[i][i] // 2 if i == j else 0)
              for j in range(2)) for i in range(2)
    )
    for p in range(2, 26):
        qs = [q for q in range(1, p) if math.gcd(q, p) == 1]
        sums = {q: partition_function(c_fixed, lens_presentation(p, q)) for q in qs}
        values = {q: complex(eval_numeric(s)) for q, s in sums.items()}
        units = {ell * ell % p for ell in qs}
        for q1 in qs:
            for q2 in qs:
                prod = q1 * q2 % p
                plus = prod in units
                minus = (-prod) % p in units
                if not (plus or minus):
                    continue
                s1, s2 = sums[q1], sums[q2]
                assert s1 == s2 or s1 == conjugate(s2), (p, q1, q2)
                z1, z2 = values[q1], values[q2]
                diff = min(abs(z1 - z2), abs(z1 - z2.conjugate()))
                assert diff < TOL, (p, q1, q2, z1, z2)


@criterion("magnitude law: |Z|^2 = |T|^n * radical sum on 50 instances")
def test_magnitude_law():
    rng = random.Random(2029)
    done = 0
    while done < 50:
        l = rand_symmetric(rng, rng.randint(1, 3), -4, 4)
        man = presentation(l)
        n = rng.randint(1, 2)
        if not 1 < man.form.order**n <= 10_000:
            continue
        done += 1
        c = rand_int_matrix(rng, n, n, -3, 3)
        k = tuple(
            tuple(c[i][j] + c[j][i] for j in range(n)) for i in range(n)
        )
        z = zvalue(c, man)
        total, rad_phases = brute_radical_terms(k, man.form)
        rad_value = sum(cmath.exp(2j * cmath.pi * float(ph)) for ph in rad_phases)
        assert abs(abs(z) ** 2 - total * rad_value.real) < TOL
        assert abs(rad_value.imag) < TOL
        if len(rad_phases) == 1:
            assert abs(abs(z) - math.sqrt(total)) < TOL
