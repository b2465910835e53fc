import fractions
import importlib.util
import os
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surgeryinv import exactmat
from surgeryinv.exactmat import (
    block_decompose,
    det_int,
    diagonal,
    identity,
    int_inverse,
    is_symmetric,
    mat,
    mat_mul,
    mat_neg,
    rat_inverse,
    signature,
    smith_normal_form,
    transpose,
)
from surgeryinv.surgery import evenize
from helpers import (
    direct_sum,
    rand_int_matrix,
    rand_symmetric,
    rand_unimodular,
    rank,
    reference_signature,
    reference_smith,
    zeros,
)

ALGEBRA = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "algebra.py")


def snf_certificate(a, snf):
    rows, cols = len(a), len(a[0]) if a else 0
    assert snf.d == mat_mul(snf.u, mat_mul(a, snf.v))
    assert abs(det_int(snf.u)) == 1
    assert abs(det_int(snf.v)) == 1
    d = diagonal(snf.d)
    assert all(x >= 0 for x in d)
    for x, y in zip(d, d[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    # off-diagonal entries vanish
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert snf.d[i][j] == 0


def test_snf_lens_5_2_matrix():
    # smallest surgery matrix presenting a space with torsion Z_5
    snf = smith_normal_form(((3, 1), (1, 2)))
    assert diagonal(snf.d) == (1, 5)
    snf_certificate(((3, 1), (1, 2)), snf)


def test_snf_identity():
    a = identity(4)
    snf = smith_normal_form(a)
    assert snf.d == a
    snf_certificate(a, snf)


def test_snf_random_certificates():
    rng = random.Random(101)
    for _ in range(80):
        a = rand_int_matrix(rng, 4, 4)
        snf_certificate(a, smith_normal_form(a))


def test_snf_rectangular_and_degenerate():
    rng = random.Random(102)
    for rows, cols in [(2, 4), (4, 2), (1, 3), (3, 1), (0, 0), (0, 3), (3, 0)]:
        for _ in range(10):
            a = rand_int_matrix(rng, rows, cols, -5, 5)
            snf_certificate(a, smith_normal_form(a))
    snf_certificate(zeros(3, 3), smith_normal_form(zeros(3, 3)))


@st.composite
def integer_matrices(draw):
    """rows x cols integer matrices of rank at most `inner`: singular,
    non-square, zero (inner = 0) and 0x0 among them."""
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 5)) if rows else 0
    inner = draw(st.integers(0, 5))
    entries = st.integers(-5, 5)
    left = [[draw(entries) for _ in range(inner)] for _ in range(rows)]
    right = [[draw(entries) for _ in range(cols)] for _ in range(inner)]
    return tuple(
        tuple(sum(left[i][k] * right[k][j] for k in range(inner)) for j in range(cols))
        for i in range(rows)
    )


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_elimination_without_transforms_matches_the_certified_form(a):
    snf = smith_normal_form(a)
    d, u, v = exactmat._smith(a, False, False)
    assert mat(d) == snf.d and u is None and v is None
    d, u, v = exactmat._smith(a, False, True)
    assert mat(d) == snf.d and u is None and mat(v) == snf.v
    assert rank(a) == len(snf.invariant_factors())


@st.composite
def smith_inputs(draw):
    """integer_matrices; a matrix of small entries where most pivots are
    +-1, up to 16 x 16, non-square, with zero rows and columns and repeated
    rows; a sparse one of entries 2, 3 and their multiples, where pivots are
    not units and the divisibility fold runs; or evenize's output on a
    random 4-8-component linking matrix, the shape whose homology
    kernel_kirby reads second."""
    kind = draw(st.sampled_from(["integer", "small", "sparse", "evenized"]))
    if kind == "integer":
        return draw(integer_matrices())
    if kind == "evenized":
        rng = random.Random(draw(st.integers(0, 2**32)))
        while True:
            out, _ = evenize(rand_symmetric(rng, rng.randint(4, 8), -2, 2))
            if len(out) <= 16:
                return out
    rows = draw(st.integers(1, 16))
    cols = draw(st.integers(1, 16))
    if kind == "small":
        entries = st.sampled_from([0, 0, 1, -1, 2, -3, 4, 6, -9, 12])
        m = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    else:
        # at most two entries a line on average: denser ones blow up the
        # transforms, and the reference with them
        m = [[0] * cols for _ in range(rows)]
        for i, j, x in draw(st.lists(
                st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1),
                          st.sampled_from([2, -4, 6, 3, -9, 12])),
                max_size=2 * min(rows, cols))):
            m[i][j] = x
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=2)):
        m[i] = [0] * cols
    for j in draw(st.lists(st.integers(0, cols - 1), max_size=2)):
        for row in m:
            row[j] = 0
    for i, k in draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, rows - 1)),
                              max_size=2)):
        m[i] = list(m[k])
    return tuple(tuple(row) for row in m)


@settings(max_examples=400, deadline=None)
@given(smith_inputs())
def test_elimination_equals_the_reference_for_every_transform_kept(a):
    # the pivot search stops at a first +-1, no remainder check or
    # divisibility scan runs under a +-1 pivot, column operations touch only
    # the pivot row of the working matrix and finished pivot rows and
    # columns leave it: d, u and v stay those of the full elimination
    for keep_u in (False, True):
        for keep_v in (False, True):
            assert exactmat._smith(a, keep_u, keep_v) == reference_smith(a, keep_u, keep_v)


def test_snf_congruence_invariance():
    rng = random.Random(103)
    for _ in range(30):
        a = rand_symmetric(rng, 4, -5, 5)
        g = rand_unimodular(rng, 4)
        conj = mat_mul(transpose(g), mat_mul(a, g))
        assert diagonal(smith_normal_form(a).d) == diagonal(smith_normal_form(conj).d)


def test_det_examples():
    # Hopf link with framings -p, -q has |det| = pq - 1
    assert det_int(((-2, 1), (1, -3))) == 5
    assert det_int(zeros(3, 3)) == 0
    assert det_int(((2, 1), (1, 4))) == 7
    assert det_int(()) == 1
    with pytest.raises(ValueError):
        det_int(((1, 2, 3), (4, 5, 6)))


def test_det_against_fraction_elimination():
    def det_fraction(a):
        n = len(a)
        m = [[Fraction(x) for x in row] for row in a]
        det = Fraction(1)
        for k in range(n):
            piv = next((i for i in range(k, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            if piv != k:
                m[k], m[piv] = m[piv], m[k]
                det = -det
            det *= m[k][k]
            for i in range(k + 1, n):
                f = m[i][k] / m[k][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
        return int(det)

    rng = random.Random(104)
    for _ in range(60):
        n = rng.randint(1, 5)
        a = rand_int_matrix(rng, n, n)
        assert det_int(a) == det_fraction(a)


def test_inverse_examples():
    inv = rat_inverse(((2, 1), (1, 4)))
    assert inv == ((Fraction(4, 7), Fraction(-1, 7)),
                   (Fraction(-1, 7), Fraction(2, 7)))
    for p in (2, 3, 7):
        assert rat_inverse(((-p,),)) == ((Fraction(-1, p),),)
    assert rat_inverse(identity(3)) == tuple(
        tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)
    )
    with pytest.raises(ValueError):
        rat_inverse(((1, 2), (2, 4)))


def test_inverse_roundtrip_random():
    rng = random.Random(105)
    done = 0
    while done < 40:
        n = rng.randint(1, 5)
        a = rand_int_matrix(rng, n, n)
        if det_int(a) == 0:
            continue
        prod = mat_mul(a, rat_inverse(a))
        assert prod == tuple(
            tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)
        )
        done += 1


def test_int_inverse_unimodular():
    rng = random.Random(106)
    for _ in range(20):
        g = rand_unimodular(rng, 4)
        gi = int_inverse(g)
        assert mat_mul(g, gi) == identity(4)
    with pytest.raises(ValueError):
        int_inverse(((2, 0), (0, 1)))


def signature_oracle(a):
    """Floating eigenvalue signs, with the exact rank fixing the zero count."""
    n = len(a)
    if n == 0:
        return 0
    r = rank(a)
    eig = sorted(np.linalg.eigvalsh(np.array(a, dtype=float)), key=abs)
    nonzero = eig[n - r:]
    return sum(1 if x > 0 else -1 for x in nonzero)


def test_signature_examples():
    assert signature(((2, 1), (1, 4))) == 2
    assert signature(zeros(4, 4)) == 0
    assert signature(()) == 0
    # hyperbolic block has signature 0
    assert signature(((0, 3), (3, 0))) == 0
    with pytest.raises(ValueError):
        signature(((1, 2), (3, 4)))


def test_signature_against_eigenvalue_oracle():
    rng = random.Random(107)
    for _ in range(120):
        n = rng.randint(1, 6)
        a = rand_symmetric(rng, n, -6, 6)
        assert signature(a) == signature_oracle(a)


def test_signature_properties():
    rng = random.Random(108)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = rand_symmetric(rng, n, -5, 5)
        b = rand_symmetric(rng, rng.randint(1, 3), -5, 5)
        g = rand_unimodular(rng, n)
        assert signature(mat_neg(a)) == -signature(a)
        assert signature(direct_sum(a, b)) == signature(a) + signature(b)
        conj = mat_mul(transpose(g), mat_mul(a, g))
        assert signature(conj) == signature(a)


def _congruent(a, g):
    return mat_mul(transpose(g), mat_mul(a, g))


def _hollow(a):
    """a with its diagonal set to 0."""
    return tuple(tuple(0 if i == j else x for j, x in enumerate(row))
                 for i, row in enumerate(a))


@st.composite
def signature_cases(draw):
    """(a, g): a symmetric integer matrix and a unimodular g of its size.
    a is small with small entries (half of them with a zero diagonal),
    small with entries up to 10^6, or t(G) (H + A) G with a hyperbolic
    plane H = [[0, b], [b, 0]] hidden by a unimodular G."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    family = draw(st.sampled_from(["small", "large", "hyperbolic"]))
    if family == "small":
        a = rand_symmetric(rng, draw(st.integers(0, 12)), -4, 4)
        if draw(st.booleans()):
            a = _hollow(a)
    elif family == "large":
        a = rand_symmetric(rng, draw(st.integers(0, 8)), -10**6, 10**6)
    else:
        b = draw(st.integers(-10**6, 10**6).filter(bool))
        rest = rand_symmetric(rng, draw(st.integers(0, 6)), -6, 6)
        a = direct_sum(((0, b), (b, 0)), rest)
        a = _congruent(a, rand_unimodular(rng, len(a)))
    return a, rand_unimodular(rng, len(a))


@settings(max_examples=400, deadline=None)
@given(signature_cases())
def test_signature_matches_lagrange_reduction_and_is_a_congruence_invariant(case):
    a, g = case
    sig = signature(a)
    assert sig == reference_signature(a)
    assert signature(_congruent(a, g)) == sig


def test_signature_on_hollow_matrices():
    # a zero diagonal forces the congruence step, often at several stages
    rng = random.Random(110)
    for k in range(300):
        a = _hollow(rand_symmetric(rng, 4 + k % 9, -9, 9))
        assert signature(a) == reference_signature(a), a


def test_signature_against_descartes_oracle():
    # perfbench's reference algebra shares no code with the package: it
    # counts eigenvalue signs on the characteristic polynomial
    spec = importlib.util.spec_from_file_location("perfbench_algebra", ALGEBRA)
    algebra = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(algebra)
    rng = random.Random(109)
    for k in range(60):
        a = rand_symmetric(rng, 1 + k % 8, -6, 6)
        if k % 3 == 0:
            a = _hollow(a)
        assert signature(a) == algebra.signature(a), a


def test_signature_makes_no_fraction(monkeypatch):
    # the rational reduction of this matrix has pivots 2, 3/2, 4/3
    a = ((2, 1, 0), (1, 2, 1), (0, 1, 2))
    assert reference_signature(a) == 3

    def no_fraction(*args):
        raise AssertionError("signature made a Fraction")

    monkeypatch.setattr(fractions, "Fraction", no_fraction)
    assert signature(a) == 3
    assert signature(mat_neg(a)) == -3


def test_signature_at_40x40():
    a = rand_symmetric(random.Random(40000), 40, -9, 9)
    assert signature(a) == reference_signature(a)
    hollow = _hollow(rand_symmetric(random.Random(40001), 40, -9, 9))
    assert signature(hollow) == reference_signature(hollow)


def block_certificate(a, dec):
    n = len(a)
    assert abs(det_int(dec.p)) == 1
    conj = mat_mul(transpose(dec.p), mat_mul(a, dec.p))
    r = dec.rank
    assert dec.a0 == tuple(row[:r] for row in conj[:r])
    assert det_int(dec.a0) != 0 or r == 0
    for i in range(n):
        for j in range(n):
            if i >= r or j >= r:
                assert conj[i][j] == 0
    assert r == rank(a)


def test_block_decompose_already_block():
    l0 = ((3, 1), (1, 2))
    a = direct_sum(l0, zeros(2, 2))
    dec = block_decompose(a)
    assert dec.rank == 2
    block_certificate(a, dec)
    # the nonsingular blocks present the same group
    assert (diagonal(smith_normal_form(dec.a0).d)
            == diagonal(smith_normal_form(l0).d))


def test_block_decompose_zero_matrix():
    dec = block_decompose(zeros(3, 3))
    assert dec.rank == 0
    assert dec.a0 == ()
    block_certificate(zeros(3, 3), dec)


def test_block_decompose_nonsingular_uses_identity():
    a = ((2, 1), (1, 4))
    dec = block_decompose(a)
    assert dec.p == identity(2)
    assert dec.a0 == a


def test_block_decompose_random_singular():
    rng = random.Random(110)
    for _ in range(40):
        r = rng.randint(0, 3)
        n = r + rng.randint(1, 2)
        core = rand_symmetric(rng, r, -4, 4)
        while r and det_int(core) == 0:
            core = rand_symmetric(rng, r, -4, 4)
        q = rand_unimodular(rng, n)
        a = mat_mul(transpose(q), mat_mul(direct_sum(core, zeros(n - r, n - r)), q))
        dec = block_decompose(a)
        assert dec.rank == r
        block_certificate(a, dec)


def _entrywise_symmetric(a):
    rows = len(a)
    cols = len(a[0]) if rows else 0
    return rows == cols and all(a[i][j] == a[j][i]
                                for i in range(rows) for j in range(rows))


@st.composite
def symmetry_cases(draw):
    """Square and non-square matrices of ints or Fractions, as tuples or
    lists, most of them symmetric but for at most one entry."""
    entry = draw(st.sampled_from([
        st.integers(-5, 5),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    ]))
    rows = draw(st.integers(0, 6))
    cols = rows if draw(st.booleans()) else draw(st.integers(0, 6))
    if rows == 0:
        cols = 0
    a = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows == cols and draw(st.booleans()):
        for i in range(rows):
            for j in range(i):
                a[i][j] = a[j][i]
        if rows and draw(st.booleans()):
            i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
            a[i][j] += draw(st.sampled_from([1, -1, Fraction(1, 2)]))
    if draw(st.booleans()):
        a = tuple(tuple(row) for row in a)
    return a


@settings(max_examples=300, deadline=None)
@given(symmetry_cases())
def test_is_symmetric_matches_the_entrywise_definition(a):
    assert is_symmetric(a) == _entrywise_symmetric(a)


def test_is_symmetric_sees_one_asymmetric_entry_anywhere():
    rng = random.Random(611)
    for n in range(1, 6):
        s = rand_symmetric(rng, n, -5, 5)
        assert is_symmetric(s) and is_symmetric([list(r) for r in s])
        for i in range(n):
            for j in range(n):
                a = [list(r) for r in s]
                a[i][j] += 1
                assert is_symmetric(a) == (i == j)
                assert is_symmetric(tuple(map(tuple, a))) == (i == j)
