import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surgeryinv.exactmat import BudgetExceededError, det_int, mat_mul, transpose
from surgeryinv.homology import first_homology
from surgeryinv.surgery import (
    apply_move,
    borromean,
    coupling_to_even,
    evenize,
    hopf,
    kirby1,
    kirby1_inverse,
    kirby2,
    preset,
    unknot,
)
from helpers import rand_symmetric, reference_evenize


def test_presets():
    assert unknot(-5) == ((-5,),)
    assert hopf(-2, -3) == ((-2, 1), (1, -3))
    assert borromean() == ((0, 0, 0), (0, 0, 0), (0, 0, 0))
    assert preset("unknot", (-5,)) == ((-5,),)
    assert preset("hopf", (-2, -3)) == ((-2, 1), (1, -3))
    assert preset("borromean") == borromean()
    with pytest.raises(ValueError):
        preset("trefoil")
    with pytest.raises(ValueError):
        preset("unknot", (1, 2))


def test_kirby1():
    assert kirby1(((-7,),), +1) == ((-7, 0), (0, 1))
    assert kirby1((), +1) == ((1,),)
    assert kirby1((), -1) == ((-1,),)
    with pytest.raises(ValueError):
        kirby1(((0,),), 2)


def test_kirby1_preserves_homology():
    rng = random.Random(201)
    for _ in range(25):
        l = rand_symmetric(rng, rng.randint(1, 4), -5, 5)
        for sign in (1, -1):
            assert first_homology(kirby1(l, sign)) == first_homology(l)


def test_kirby1_inverse():
    assert kirby1_inverse(((-7, 0), (0, 1)), 1) == ((-7,),)
    assert kirby1_inverse(((1,),), 0) == ()
    with pytest.raises(ValueError):
        kirby1_inverse(((2, 1), (1, 1)), 1)  # not isolated
    with pytest.raises(ValueError):
        kirby1_inverse(((2, 0), (0, 3)), 1)  # framing not +-1
    with pytest.raises(ValueError):
        kirby1_inverse(((1,),), 3)


def kirby2_by_hand(l, i0, j0, sign):
    """Entrywise slide formula, written out independently of the library."""
    n = len(l)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == i0 and j == i0:
                out[i][j] = l[i0][i0] + l[j0][j0] + sign * 2 * l[i0][j0]
            elif i == i0:
                out[i][j] = l[i0][j] + sign * l[j0][j]
            elif j == i0:
                out[i][j] = l[i][i0] + sign * l[i][j0]
            else:
                out[i][j] = l[i][j]
    return tuple(tuple(row) for row in out)


def test_kirby2_hopf_example():
    p, q = 2, 3
    l = hopf(-p, -q)
    got = kirby2(l, 0, 1, +1)
    assert got == ((-p - q + 2, 1 - q), (1 - q, -q))
    assert got == kirby2_by_hand(l, 0, 1, +1)


def test_kirby2_matches_congruence_certificate():
    rng = random.Random(202)
    for _ in range(40):
        n = rng.randint(2, 4)
        l = rand_symmetric(rng, n, -5, 5)
        i0, j0 = rng.sample(range(n), 2)
        sign = rng.choice([1, -1])
        got = kirby2(l, i0, j0, sign)
        assert got == kirby2_by_hand(l, i0, j0, sign)
        p = [[int(i == j) for j in range(n)] for i in range(n)]
        p[j0][i0] = sign
        p = tuple(tuple(row) for row in p)
        assert got == mat_mul(transpose(p), mat_mul(l, p))
        assert abs(det_int(p)) == 1
        assert det_int(got) == det_int(l)
        # slide back restores the matrix
        assert kirby2(got, i0, j0, -sign) == l
        assert first_homology(got) == first_homology(l)


def test_kirby2_errors():
    l = hopf(-2, -3)
    with pytest.raises(ValueError):
        kirby2(l, 1, 1, +1)
    with pytest.raises(ValueError):
        kirby2(l, 0, 2, +1)
    with pytest.raises(ValueError):
        kirby2(l, 0, 1, 3)


def test_apply_move_roundtrip():
    l = hopf(-2, -3)
    assert apply_move(l, ("1", 1)) == kirby1(l, 1)
    assert apply_move(l, ("2", 0, 1, -1)) == kirby2(l, 0, 1, -1)
    assert apply_move(kirby1(l, 1), ("1inv", 2)) == l
    with pytest.raises(ValueError):
        apply_move(l, ("3", 0))


def test_evenize_already_even():
    l = ((0, 1), (1, -2))
    out, transcript = evenize(l)
    assert out == l
    assert transcript == []


def test_evenize_single_odd_unknot():
    out, transcript = evenize(((1,),))
    assert all(out[i][i] % 2 == 0 for i in range(len(out)))
    b1, torsion = first_homology(out)
    assert b1 == 0 and torsion.factors == ()  # still the 3-sphere
    replay = ((1,),)
    for move in transcript:
        replay = apply_move(replay, move)
    assert replay == out


def test_evenize_preserves_lens_5_2():
    l = ((3, 1), (1, 2))
    out, _ = evenize(l)
    assert all(out[i][i] % 2 == 0 for i in range(len(out)))
    assert first_homology(out) == first_homology(l)


def test_evenize_random_suite():
    rng = random.Random(203)
    for _ in range(60):
        n = rng.randint(1, 4)
        l = rand_symmetric(rng, n, -5, 5)
        out, transcript = evenize(l)
        assert all(out[i][i] % 2 == 0 for i in range(len(out)))
        assert first_homology(out) == first_homology(l)
        replay = l
        for move in transcript:
            replay = apply_move(replay, move)
        assert replay == out


def test_evenize_output_grows_with_the_framing():
    out, transcript = evenize(((101,),))
    assert len(out) == 102 and len(transcript) == 407
    with pytest.raises(BudgetExceededError, match="102x102"):
        evenize(((101,),), budget=100)


def test_evenize_budget_holds_the_exact_output_size():
    # the size is predicted before the first move: a budget of size^2
    # entries passes and one entry less refuses
    rng = random.Random(204)
    for _ in range(60):
        l = rand_symmetric(rng, rng.randint(1, 5), -9, 9)
        out, transcript = evenize(l)
        size = len(out)
        assert evenize(l, budget=size * size) == (out, transcript)
        if transcript:
            with pytest.raises(BudgetExceededError):
                evenize(l, budget=size * size - 1)


def test_evenize_mod2_obstruction_case():
    # row-over-row slides alone cannot make every coupling to a fixed row
    # odd here; the auxiliary pivot route has to handle it
    l = ((1, 0, 1), (0, 1, 1), (1, 1, 1))
    out, transcript = evenize(l)
    assert all(out[i][i] % 2 == 0 for i in range(len(out)))
    assert first_homology(out) == first_homology(l)
    assert transcript


@st.composite
def long_run_matrices(draw):
    """Symmetric matrices whose even-framed components link the odd part
    by large even numbers.  They stay out of the GF(2) subset, so the
    pivot framing stays small while each of them slides over the pivot
    up to a few hundred times."""
    small = draw(st.integers(1, 3))
    large = draw(st.integers(0, 3))
    n = small + large
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i < small and j < small:
                x = draw(st.integers(-5, 5))
            elif i < small:
                x = 2 * draw(st.integers(-60, 60))
            else:
                x = 2 * draw(st.integers(-3, 3))
            m[i][j] = m[j][i] = x
    order = draw(st.permutations(range(n)))
    return tuple(tuple(m[i][j] for j in order) for i in order)


@st.composite
def small_symmetric(draw):
    n = draw(st.integers(0, 5))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(st.integers(-6, 6))
    return tuple(map(tuple, m))


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_symmetric(), long_run_matrices()))
@example(((1, 40), (40, 0)))  # component 1 slides over the pivot 40 times
def test_evenize_equals_the_move_by_move_reference(l):
    out, transcript = evenize(l)
    assert (out, transcript) == reference_evenize(l)
    assert all(out[i][i] % 2 == 0 for i in range(len(out)))
    replay = l
    for move in transcript:
        replay = apply_move(replay, move)
    assert replay == out


def test_coupling_to_even():
    assert coupling_to_even(((0, 3), (0, 0))) == ((0, 3), (3, 0))
    assert coupling_to_even(((5,),)) == ((10,),)
    assert coupling_to_even(((1, 1), (0, 2))) == ((2, 1), (1, 4))
    with pytest.raises(ValueError):
        coupling_to_even(((1, 2, 3), (4, 5, 6)))


def test_coupling_depends_only_on_symmetrization():
    rng = random.Random(204)
    for _ in range(20):
        n = rng.randint(1, 4)
        c = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))
        assert coupling_to_even(c) == coupling_to_even(transpose(c))
