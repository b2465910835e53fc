import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from surgeryinv import exactmat, gauss, homology, reciprocity
from surgeryinv.exactmat import (
    block_decompose,
    det_int,
    int_inverse,
    rat_inverse,
    smith_normal_form,
)
from surgeryinv.gauss import gauss_sum_over_lattice, partition_function
from surgeryinv.homology import (
    LinkingForm,
    Group,
    ManifoldPresentation,
    TorsionGroup,
    first_homology,
    full_homology,
    lens_chain,
    lens_presentation,
    linking_form,
    linking_form_with_generators,
    presentation,
)
from surgeryinv.surgery import borromean, hopf, unknot
from helpers import (
    direct_sum,
    draw_symmetric,
    rand_symmetric,
    representatives_matter,
    signed,
    symmetric_matrices,
    zeros,
)


def test_torsion_group_validation():
    assert TorsionGroup((2, 4, 8)).order == 64
    assert TorsionGroup(()).order == 1
    with pytest.raises(ValueError):
        TorsionGroup((1, 2))
    with pytest.raises(ValueError):
        TorsionGroup((2, 3))


def test_first_homology_presets():
    for p in range(2, 10):
        assert first_homology(unknot(-p)) == (0, TorsionGroup((p,)))
    assert first_homology(borromean()) == (3, TorsionGroup(()))
    for p, q in [(2, 3), (3, 4), (2, 2), (5, 2)]:
        b1, torsion = first_homology(hopf(-p, -q))
        assert b1 == 0
        assert torsion == TorsionGroup((p * q - 1,))


def test_full_homology_lists():
    # 0-surgery on the unknot: S^1 x S^2, all groups Z
    h = full_homology(((0,),))
    assert (h.h0, h.h1, h.h2, h.h3) == (Group(1), Group(1), Group(1), Group(1))
    # Borromean rings: the 3-torus
    h = full_homology(borromean())
    assert h.h1 == Group(3) and h.h2 == Group(3)
    assert h.h0 == Group(1) and h.h3 == Group(1)
    # real projective space: torsion Z_2, no free rank in the middle
    h = full_homology(((-2,),))
    assert h.h1 == Group(0, (2,))
    assert h.h2 == Group(0)
    assert str(h.h1) == "Z_2" and str(h.h2) == "0"


def test_linking_form_unknot():
    for p in (2, 3, 5, 12):
        form = linking_form(unknot(-p))
        assert form.factors == (p,)
        assert form.q_mod1() == ((Fraction(p - 1, p),),)  # -1/p mod 1


def brute_gauss_z5(a):
    return sum(cmath.exp(2j * cmath.pi * 2 * a * u * u / 5) for u in range(5))


def test_linking_form_lens_5_2_matrix():
    form = linking_form(((3, 1), (1, 2)))
    assert form.factors == (5,)
    a = form.q_mod1()[0][0]
    assert a.denominator == 5 and math.gcd(a.numerator, 5) == 1
    got = brute_gauss_z5(a.numerator)
    ref = brute_gauss_z5(2)
    assert min(abs(got - ref), abs(got - ref.conjugate())) < 1e-9


def test_linking_form_ignores_zero_block():
    l0 = ((3, 1), (1, 2))
    padded = direct_sum(l0, zeros(2, 2))
    assert linking_form(padded) == linking_form(l0)


def test_linking_form_well_defined_and_symmetric():
    rng = random.Random(301)
    for _ in range(40):
        n = rng.randint(1, 4)
        l = rand_symmetric(rng, n, -5, 5)
        form = linking_form(l)
        q = form.q
        for i, p in enumerate(form.factors):
            for j in range(form.rank):
                assert (p * q[i][j]).denominator == 1
                assert (form.factors[j] * q[i][j]).denominator == 1
        q1 = form.q_mod1()
        assert q1 == tuple(tuple(row) for row in zip(*q1))


def test_check_form_refuses_a_form_off_the_group_or_asymmetric():
    homology._check_form(LinkingForm((2, 4), ((2, 2), (2, 3)), 4))
    # 4 * 1/8 is not an integer: no pairing on Z_4
    with pytest.raises(AssertionError, match="not defined on the group"):
        homology._check_form(LinkingForm((4,), ((1,),), 8))
    # q[0][1] = 1/2 and q[1][0] = 0 differ mod 1
    with pytest.raises(AssertionError, match="not symmetric mod 1"):
        homology._check_form(LinkingForm((2, 2), ((1, 1), (0, 1)), 2))


def test_linking_form_nondegenerate_brute_force():
    rng = random.Random(302)
    checked = 0
    while checked < 25:
        n = rng.randint(1, 3)
        l = rand_symmetric(rng, n, -4, 4)
        form = linking_form(l)
        if form.order == 1 or form.order > 1000:
            continue
        checked += 1
        q = form.q
        boxes = [range(p) for p in form.factors]
        for u in itertools.product(*boxes):
            if all(x == 0 for x in u):
                continue
            pairings = [
                sum(u[i] * q[i][j] for i in range(form.rank)) % 1
                for j in range(form.rank)
            ]
            assert any(x != 0 for x in pairings), (l, u)


def test_linking_form_generators_have_stated_orders():
    form, gens = linking_form_with_generators(((3, 1), (1, 2)))
    assert form.factors == (5,)
    assert len(gens) == 1 and len(gens[0]) == 2


def test_lens_chain():
    assert lens_chain(5, 1) == ((-5,),)
    assert lens_chain(5, 2) == ((-3, 1), (1, -2))
    assert lens_chain(1, 1) == ((-1,),)
    for p in range(1, 26):
        for q in range(1, p + 1):
            if math.gcd(p, q) != 1:
                continue
            chain = lens_chain(p, q)
            assert abs(det_int(chain)) == p
            assert all(chain[i][i] <= -1 for i in range(len(chain)))
    with pytest.raises(ValueError):
        lens_chain(4, 2)
    with pytest.raises(ValueError):
        lens_chain(0, 1)


def test_every_linking_form_path_refuses_an_asymmetric_matrix_alike():
    a = ((1, 2), (0, 3))
    for fn in (first_homology, linking_form, presentation, gauss.coset_representatives):
        with pytest.raises(ValueError, match="^linking matrix must be symmetric$"):
            fn(a)
    with pytest.raises(ValueError, match="^modulus matrix must be symmetric$"):
        gauss_sum_over_lattice(((2,),), a, 1)


def test_lens_chain_equals_the_entrywise_construction():
    rng = random.Random(1999)
    cases = [(1, 1), (2, 1)]
    while len(cases) < 60:
        p = rng.randint(1, 400)
        q = rng.randint(1, p)
        if math.gcd(p, q) == 1:
            cases.append((p, q))
    for p, q in cases:
        terms = homology._negative_continued_fraction(p, q % p if p > 1 else 1)
        k = len(terms)
        entrywise = tuple(
            tuple(-terms[i] if i == j else (1 if abs(i - j) == 1 else 0)
                  for j in range(k))
            for i in range(k)
        )
        assert lens_chain(p, q) == entrywise


def test_lens_presentation():
    man = lens_presentation(2, 1)
    assert man.torsion == TorsionGroup((2,))
    assert man.form.q_mod1() == ((Fraction(1, 2),),)  # -1/2 mod 1
    for p in (2, 3, 7, 11):
        assert (lens_presentation(p, 1).form.q_mod1()
                == linking_form(unknot(-p)).q_mod1())
    assert lens_presentation(1, 1).torsion.order == 1
    assert lens_presentation(1, 1).form.factors == ()
    with pytest.raises(ValueError):
        lens_presentation(6, 3)


def test_lens_presentation_form_matches_chain_up_to_sign_and_squares():
    # the pinned representative -q/p and the generator-derived form of the
    # chain agree up to multiplication by +-(unit squared) mod p
    for p in range(2, 16):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            man = lens_presentation(p, q)
            derived = linking_form(man.matrix)
            assert derived.factors == (p,)
            a = derived.q_mod1()[0][0]
            pinned = man.form.q_mod1()[0][0]
            units = {
                sign * ell * ell % p
                for ell in range(1, p) if math.gcd(ell, p) == 1
                for sign in (1, -1)
            }
            ratio = (a.numerator * pow(pinned.numerator, -1, p)) % p
            assert ratio in units


def test_presentation_caches_match():
    rng = random.Random(303)
    for _ in range(10):
        l = rand_symmetric(rng, rng.randint(1, 3), -4, 4)
        man = presentation(l)
        assert man.homology == full_homology(l)
        assert man.form == linking_form(l)
        assert man.b1 == man.homology.b1


def test_lens_presentation_takes_no_smith_form(monkeypatch):
    count_calls(monkeypatch, "_smith", forbid=True)
    man = lens_presentation(2000, 1999)
    assert len(man.matrix) == 1999
    assert man.b1 == 0 and man.torsion == TorsionGroup((2000,))
    assert man.homology.h1 == Group(0, (2000,))
    assert man.form == LinkingForm((2000,), ((-1999,),), 2000)


def reference_form(l):
    """The form as built from inverses, as ((factors, Q), generators):
    generators are the columns of inverse(u) for the Smith form d = u l v,
    and Q = t(g) X g, a matrix of Fractions, with X = p diag(inverse(a0), 0)
    t(p) from the block decomposition t(p) l p = diag(a0, 0), a
    pseudo-inverse of l on its image."""
    n = len(l)
    snf = smith_normal_form(l)
    u_inv = int_inverse(snf.u)
    cols = [k for k in range(n) if snf.d[k][k] >= 2]
    gens = tuple(tuple(u_inv[i][k] for i in range(n)) for k in cols)
    dec = block_decompose(l)
    a0_inv = rat_inverse(dec.a0) if dec.rank else ()
    pinv = [[sum(dec.p[i][a] * a0_inv[a][b] * dec.p[j][b]
                 for a in range(dec.rank) for b in range(dec.rank))
             for j in range(n)] for i in range(n)]
    q = tuple(
        tuple(sum(g[i] * pinv[i][j] * h[j] for i in range(n) for j in range(n))
              for h in gens)
        for g in gens
    )
    return (tuple(snf.d[k][k] for k in cols), q), gens


def reference_lattice_sum(l, k0, sign):
    """The lattice sum on the reference generators, paired by the adjugate
    of k0 modulo 2|det k0|, with the determinant's sign folded in."""
    (factors, _), gens = reference_form(k0)
    det = det_int(k0)
    s = len(k0)
    adj = [[int(x * det) for x in row] for row in rat_inverse(k0)]
    gram = tuple(
        tuple(sum(g[i] * adj[i][j] * h[j] for i in range(s) for j in range(s))
              % (2 * abs(det)) for h in gens)
        for g in gens
    )
    form = LinkingForm(factors, gram, abs(det))
    return gauss._gauss_sum(signed(l, sign * (1 if det > 0 else -1)), form, None)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(symmetric_matrices(), st.data())
def test_inverse_free_form_equals_the_reference(l, data):
    form, gens = linking_form_with_generators(l)
    ref_form, ref_gens = reference_form(l)
    assert gens == ref_gens
    assert (form.factors, form.q) == ref_form
    assert all(type(x) is Fraction for row in form.q for x in row)
    assert presentation(l).homology == full_homology(l)
    if det_int(l) != 0 and form.order <= 60:
        summand = draw_symmetric(data.draw, data.draw(st.integers(1, 2)),
                                 st.integers(-3, 3))
        sign = data.draw(st.sampled_from([1, -1]))
        if representatives_matter(summand, l):
            for fn in (gauss_sum_over_lattice, reference_lattice_sum):
                with pytest.raises(ValueError, match="representatives"):
                    fn(summand, l, sign)
        else:
            assert (gauss_sum_over_lattice(summand, l, sign)
                    == reference_lattice_sum(summand, l, sign))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(symmetric_matrices(singular=True), st.data())
def test_partition_of_a_singular_matrix_sums_over_the_reference_form(l, data):
    size = data.draw(st.integers(1, 2))
    c = tuple(tuple(data.draw(st.integers(-3, 3)) for _ in range(size))
              for _ in range(size))
    (factors, q), _ = reference_form(l)
    # the reference Q as integer numerators over the lcm of its reduced
    # denominators, the engine modulus the partition function must keep
    denom = math.lcm(*(x.denominator for row in q for x in row))
    ref_form = LinkingForm(factors, tuple(tuple(int(x * denom) for x in row) for row in q),
                           denom)
    ref = ManifoldPresentation(l, full_homology(l), ref_form)
    got, want = partition_function(c, presentation(l)), partition_function(c, ref)
    assert got == want
    assert (got._modulus, got._counts) == (want._modulus, want._counts)


def count_calls(monkeypatch, name, forbid=False):
    """Count calls of exactmat's `name` from every surgeryinv module that
    binds it; with forbid, any call fails the test."""
    original = getattr(exactmat, name)
    calls = []

    def counted(*args):
        if forbid:
            raise AssertionError(f"{name} called")
        calls.append(args)
        return original(*args)

    for mod in (exactmat, homology, gauss, reciprocity):
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def kept(calls):
    """The transforms each counted Smith elimination carried: "uv", "v" or ""."""
    return ["u" * keep_u + "v" * keep_v for _, keep_u, keep_v in calls]


def test_one_smith_form_per_matrix_and_no_inverse(monkeypatch):
    for name in ("rat_inverse", "int_inverse"):
        count_calls(monkeypatch, name, forbid=True)
    calls = count_calls(monkeypatch, "_smith")
    nonsingular = ((2, 1, 0), (1, 4, 3), (0, 3, 8))
    singular = ((1, 2, 1), (2, -6, 2), (1, 2, 1))
    for l in (nonsingular, singular):
        calls.clear()
        presentation(l)
        assert len(calls) == 1
        assert kept(calls) == ["v"]
        calls.clear()
        linking_form_with_generators(l)
        assert len(calls) == 1
        assert kept(calls) == ["v"]
        calls.clear()
        block_decompose(l)
        assert kept(calls) == ["v"]
        calls.clear()
        full_homology(l)
        assert kept(calls) == [""]
        calls.clear()
        smith_normal_form(l)
        assert kept(calls) == ["uv"]
    calls.clear()
    gauss_sum_over_lattice(((2,),), nonsingular, +1)
    assert len(calls) == 1
    assert kept(calls) == ["v"]
    # reciprocity: one Smith form and one signature per matrix, no block
    # split and no determinant
    for name in ("det_int", "block_decompose"):
        count_calls(monkeypatch, name, forbid=True)
    signatures = count_calls(monkeypatch, "signature")
    for l, k in ((nonsingular, ((2, 1), (1, 2))), (singular, ((0, 0), (0, 4)))):
        calls.clear()
        signatures.clear()
        reciprocity.reciprocity_sides(l, k)
        assert kept(calls) == ["v", "v"]
        assert len(signatures) == 2


def test_each_command_builds_only_the_transforms_it_reads(monkeypatch, tmp_path, capsys):
    from surgeryinv import cli

    calls = count_calls(monkeypatch, "_smith")
    path = tmp_path / "m.txt"
    path.write_text(cli.format_matrix(((1, 2, 1), (2, -6, 2), (1, 2, 1))))
    expected = {
        ("homology", str(path)): [""],
        ("homology", "--preset", "hopf:2,3"): [""],
        ("homology", "--preset", "lens:12,5"): [],
        ("linking-form", str(path)): ["v"],
        ("snf", str(path)): ["uv"],
    }
    for argv, transforms in expected.items():
        calls.clear()
        assert cli.main([*argv, "--json"]) == 0
        assert kept(calls) == transforms, argv
    capsys.readouterr()
