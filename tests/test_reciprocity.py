import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from surgeryinv import gauss
from surgeryinv.exactmat import (
    BudgetExceededError,
    block_decompose,
    det_int,
    mat_mul,
    mat_neg,
    transpose,
)
from surgeryinv.gauss import (
    conjugate,
    eval_numeric,
    gauss_sum_over_lattice,
    partition_function,
)
from surgeryinv.homology import first_homology, presentation
from surgeryinv.reciprocity import chat_from_even, cs_dual, reciprocity_sides
from surgeryinv.surgery import coupling_to_even, kirby1, kirby2
from helpers import rand_even_symmetric, rand_symmetric, signed, symmetric_matrices, zeros


def test_chat_from_even():
    assert chat_from_even(((2, 1), (1, 4))) == ((1, 1), (0, 2))
    k = 5
    assert chat_from_even(((0, k), (k, 0))) == ((0, k), (0, 0))
    assert chat_from_even(zeros(3, 3)) == zeros(3, 3)
    with pytest.raises(ValueError):
        chat_from_even(((1, 0), (0, 2)))
    with pytest.raises(ValueError):
        chat_from_even(((0, 1), (2, 0)))


def test_chat_round_trip():
    rng = random.Random(501)
    for _ in range(20):
        l = rand_even_symmetric(rng, rng.randint(1, 4), -6, 6)
        c = chat_from_even(l)
        assert coupling_to_even(c) == l
        # upper triangular
        assert all(c[i][j] == 0 for i in range(len(l)) for j in range(i))


def test_reciprocity_worked_example():
    report = reciprocity_sides(((2,),), ((2, 1), (1, 4)))
    assert report.sigma_k == 2
    assert report.det_k0 == 7
    assert report.det_l0 == 2
    assert (report.m, report.n, report.r, report.s) == (1, 2, 1, 2)
    # both sides equal i
    assert report.lhs == report.rhs == (0, 1, 128)
    assert report.abs_diff == 0 and report.lhs == report.rhs


def test_reciprocity_empty():
    report = reciprocity_sides((), ())
    assert complex(report.lhs) == 1 + 0j
    assert complex(report.rhs) == 1 + 0j
    assert report.abs_diff == 0


def maybe_singular(even=False):
    return st.booleans().flatmap(
        lambda singular: symmetric_matrices(3, singular=singular, even=even))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(maybe_singular(), maybe_singular(even=True))
def test_one_pass_per_matrix_equals_the_split_off_blocks(l, k):
    # oracle: split off each nonsingular block a0 with
    # block_decompose, take det_int(a0), and sum over Z^r / a0 Z^r
    budget = 20_000
    for a, b, sign in ((l, k, +1), (k, l, -1)):
        form = presentation(b).form
        a0 = block_decompose(b).a0
        try:
            got = gauss._gauss_sum(signed(a, sign), form, budget)
        except BudgetExceededError as exc:
            with pytest.raises(BudgetExceededError, match=re.escape(str(exc))):
                gauss_sum_over_lattice(a, a0, sign, budget)
            continue
        want = gauss_sum_over_lattice(a, a0, sign, budget)
        assert got == want
        assert (got._modulus, got._counts) == (want._modulus, want._counts)
    try:
        report = reciprocity_sides(l, k, precision=64, budget=budget)
    except BudgetExceededError:
        return
    dec_l, dec_k = block_decompose(l), block_decompose(k)
    assert (report.r, report.det_l0) == (dec_l.rank, det_int(dec_l.a0))
    assert (report.s, report.det_k0) == (dec_k.rank, det_int(dec_k.a0))
    assert report.abs_diff == 0 and report.lhs == report.rhs


def test_reciprocity_random_pairs():
    rng = random.Random(502)
    done = 0
    while done < 40:
        a = rng.randint(1, 3)
        b = rng.randint(1, 3)
        l = rand_symmetric(rng, a, -6, 6)
        k = rand_even_symmetric(rng, b, -6, 6)
        try:
            report = reciprocity_sides(l, k, budget=100_000)
        except Exception as exc:
            if "budget" in str(exc):
                continue
            raise
        done += 1
        assert report.abs_diff == 0 and report.lhs == report.rhs, (l, k)


def test_reciprocity_degenerate_inputs():
    g = ((1, 1), (0, 1))
    skew_singular_k = mat_mul(transpose(g), mat_mul(((2, 0), (0, 0)), g))
    cases = [
        (((0,),), ((0,),)),
        (((0, 0), (0, 0)), ((2, 1), (1, 4))),          # zero linking matrix
        (((2,),), ((0, 0), (0, 0))),                    # zero coupling side
        (((1, 2), (2, 4)), ((2, 2), (2, 2))),           # both rank one
        (((1, 1), (1, 1)), ((4, 2), (2, 2))),           # odd singular l
        (((3, 1), (1, 2)), skew_singular_k),            # kernel off-axis
    ]
    for l, k in cases:
        report = reciprocity_sides(l, k, budget=100_000)
        assert report.abs_diff == 0 and report.lhs == report.rhs, (l, k)
        assert report.r <= report.m and report.s <= report.n


def test_reciprocity_flags_odd_l():
    report = reciprocity_sides(((3,),), ((2,),))
    assert not report.l_even
    assert report.abs_diff == 0 and report.lhs == report.rhs
    assert reciprocity_sides(((2,),), ((2,),)).l_even


def test_reciprocity_rejects_odd_k():
    with pytest.raises(ValueError):
        reciprocity_sides(((2,),), ((3,),))


def test_both_sides_invariant_under_global_negation():
    rng = random.Random(503)
    done = 0
    while done < 10:
        l = rand_symmetric(rng, rng.randint(1, 2), -5, 5)
        k = rand_even_symmetric(rng, rng.randint(1, 2), -5, 5)
        try:
            r1 = reciprocity_sides(l, k, budget=50_000)
            r2 = reciprocity_sides(mat_neg(l), mat_neg(k), budget=50_000)
        except Exception as exc:
            if "budget" in str(exc):
                continue
            raise
        done += 1
        # the lattice sums of both sides, exactly
        for (a, b), sign in (((l, k), 1), ((k, l), -1)):
            s1 = gauss_sum_over_lattice(a, block_decompose(b).a0, sign)
            s2 = gauss_sum_over_lattice(mat_neg(a), block_decompose(mat_neg(b)).a0, sign)
            assert s1 == s2
        assert r1.lhs == r2.lhs and r1.rhs == r2.rhs


def test_lhs_sum_invariant_under_second_kirby_move():
    rng = random.Random(504)
    done = 0
    while done < 15:
        m = rng.randint(2, 3)
        l = rand_symmetric(rng, m, -4, 4)
        k0 = rand_even_symmetric(rng, rng.randint(1, 2), -4, 4)
        dec = block_decompose(k0)
        if dec.rank != len(k0) or abs_det(dec.a0) > 30:
            continue
        done += 1
        i0, j0 = rng.sample(range(m), 2)
        moved = kirby2(l, i0, j0, rng.choice([1, -1]))
        # even modulus makes each term class-independent: exact equality
        assert (gauss_sum_over_lattice(l, k0, +1)
                == gauss_sum_over_lattice(moved, k0, +1))


def abs_det(a):
    from surgeryinv.exactmat import det_int

    return abs(det_int(a))


def test_identity_survives_first_kirby_move():
    rng = random.Random(505)
    done = 0
    while done < 10:
        l = rand_symmetric(rng, rng.randint(1, 2), -4, 4)
        k = rand_even_symmetric(rng, rng.randint(1, 2), -4, 4)
        sign = rng.choice([1, -1])
        moved = kirby1(l, sign)
        try:
            r0 = reciprocity_sides(l, k, budget=50_000)
            r1 = reciprocity_sides(moved, k, budget=50_000)
        except Exception as exc:
            if "budget" in str(exc):
                continue
            raise
        done += 1
        assert r0.abs_diff == 0 and r0.lhs == r0.rhs
        assert r1.abs_diff == 0 and r1.lhs == r1.rhs
        # the signature bookkeeping changed by exactly the move
        assert r1.sigma_l == r0.sigma_l + sign


def test_cs_dual_structure():
    l = ((-6,),)  # linking matrix of L(6, 1), the level-3 dual geometry
    k = ((2, 0), (0, 4))
    dual = cs_dual(l, k)
    assert dual.linking == k
    assert coupling_to_even(dual.coupling) == mat_neg(l)
    b1, torsion = first_homology(l)
    assert b1 == 0 and torsion.factors == (6,)
    with pytest.raises(ValueError):
        cs_dual(((1,),), k)
    with pytest.raises(ValueError):
        cs_dual(l, ((1,),))


def test_dual_partition_function_is_the_lhs_sum():
    # the dual theory's partition function, computed through the linking
    # form machinery, coincides with the left-hand Gauss sum term by term
    rng = random.Random(506)
    done = 0
    while done < 15:
        l = rand_even_symmetric(rng, rng.randint(1, 2), -4, 4)
        k = rand_even_symmetric(rng, rng.randint(1, 2), -4, 4)
        dec = block_decompose(k)
        if dec.rank and abs_det(dec.a0) > 60:
            continue
        done += 1
        dual = cs_dual(l, k)
        z_dual = partition_function(dual.coupling, presentation(k))
        lhs = gauss_sum_over_lattice(l, dec.a0, +1)
        assert z_dual == lhs


def test_dual_of_dual_is_global_negation():
    rng = random.Random(507)
    done = 0
    while done < 10:
        l = rand_even_symmetric(rng, rng.randint(1, 2), -4, 4)
        k = rand_even_symmetric(rng, rng.randint(1, 2), -4, 4)
        man = presentation(l)
        if man.form.order ** len(k) > 5000:
            continue
        done += 1
        dual = cs_dual(l, k)
        dual2 = cs_dual(dual.linking, coupling_to_even(dual.coupling))
        assert dual2.linking == mat_neg(l)
        assert coupling_to_even(dual2.coupling) == mat_neg(k)
        s = partition_function(chat_from_even(k), man)
        s2 = partition_function(dual2.coupling, presentation(dual2.linking))
        assert s == s2
        z, z2 = complex(eval_numeric(s)), complex(eval_numeric(s2))
        assert abs(z - z2) < 1e-9


def test_self_dual_data_gives_conjugate_partition_functions():
    rng = random.Random(508)
    done = 0
    while done < 10:
        k = rand_even_symmetric(rng, rng.randint(1, 2), -4, 4)
        man = presentation(k)
        if man.form.order ** len(k) > 5000:
            continue
        done += 1
        z = partition_function(chat_from_even(k), man)
        dual = cs_dual(k, k)
        z_dual = partition_function(dual.coupling, presentation(dual.linking))
        assert z_dual == conjugate(z)
