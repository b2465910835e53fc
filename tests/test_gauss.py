import cmath
import itertools
import json
import math
import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from surgeryinv import gauss
from surgeryinv.cli import _dumps, _phases_doc
from surgeryinv.exactmat import (
    det_int,
    mat_mul,
    rat_inverse,
    signature,
    smith_normal_form,
    transpose,
)
from surgeryinv.gauss import (
    BudgetExceededError,
    CyclotomicSum,
    conjugate,
    coset_representatives,
    eval_numeric,
    gauss_sum_over_lattice,
    partition_function,
)
from surgeryinv.homology import (
    LinkingForm,
    lens_presentation,
    linking_form_with_generators,
    presentation,
)
from surgeryinv.surgery import coupling_to_even, kirby1, kirby2
from helpers import (
    block_counts,
    brute_radical_terms,
    phase_sum,
    quadratic_phase,
    rand_even_symmetric,
    rand_symmetric,
    rand_unimodular,
    read_by_phases,
    REFERENCE_ROOT_BITS,
    reference_eval_numeric,
    reference_jordan_summands,
    reference_root_walk,
    representatives_matter,
    root_groups,
    signed,
    symmetric_matrices,
)


Z2_HALF = LinkingForm((2,), ((1,),), 2)
Z2_MINUS_HALF = LinkingForm((2,), ((-1,),), 2)
K_EXAMPLE = ((2, 1), (1, 4))


def test_phase_sum_merges_and_drops_zeros():
    # the expected sums of the tests: phases read mod 1, equal ones merged
    s = phase_sum([(Fraction(3, 2), 2), (Fraction(1, 2), -2), (Fraction(0), 1)])
    assert s.items() == ((Fraction(0), 1),)
    assert phase_sum({Fraction(1, 3): 5}) == phase_sum(
        [(Fraction(4, 3), 2), (Fraction(1, 3), 3)]
    )
    # terms that cancel leave no trace of their denominator
    cancelled = phase_sum([(Fraction(1, 3), 1), (Fraction(1, 3), -1), (Fraction(0), 1)])
    assert (cancelled._counts, cancelled._modulus) == ({0: 1}, 1)
    assert cancelled == CyclotomicSum({0: 1}, 1) and CyclotomicSum({0: 1}, 1) == cancelled


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_the_constructor_takes_keys_over_a_modulus(seed):
    # CyclotomicSum(counts, modulus) is the sum of the phases k/modulus,
    # and so are the keys 3 k over 3 modulus
    rng = random.Random(seed)
    modulus = rng.choice([1, 2, 12, rng.randint(1, 10**6), rng.randint(1, 2**200)])
    counts = {rng.randrange(modulus): rng.choice([-4, -1, 1, 7])
              for _ in range(rng.randint(0, 30))}
    want = phase_sum((Fraction(k, modulus), v) for k, v in counts.items())
    for s in (CyclotomicSum(counts, modulus),
              CyclotomicSum({3 * k: v for k, v in counts.items()}, 3 * modulus)):
        assert s == want and want == s
        assert s.items() == want.items()
        assert repr(s) == repr(want)
        assert (len(s), s.total_multiplicity) == (len(want), want.total_multiplicity)


def test_exponent_phase_zero_vector():
    # the oracle's term phase, which the engine's histograms are checked with
    assert quadratic_phase(K_EXAMPLE, Z2_MINUS_HALF, (0, 0)) == 0


def test_exponent_phase_worked_value():
    # the -1 summand of the worked L(2,1) partition function
    assert quadratic_phase(K_EXAMPLE, Z2_MINUS_HALF, (1, 0)) == Fraction(1, 2)
    # the opposite orientation convention gives the same phase here
    assert quadratic_phase(K_EXAMPLE, Z2_HALF, (1, 0)) == Fraction(1, 2)
    assert quadratic_phase(K_EXAMPLE, Z2_MINUS_HALF, (0, 1)) == 0
    assert quadratic_phase(K_EXAMPLE, Z2_MINUS_HALF, (1, 1)) == 0


def test_representative_shift_leaves_phase_unchanged():
    rng = random.Random(401)
    for _ in range(40):
        n = rng.randint(1, 3)
        k = rand_even_symmetric(rng, n, -5, 5)
        l = rand_symmetric(rng, rng.randint(1, 3), -4, 4)
        form = presentation(l).form
        if form.order == 1:
            continue
        t = form.rank
        u = [rng.randrange(form.factors[a % t]) for a in range(n * t)]
        base = quadratic_phase(k, form, tuple(u))
        shifted = list(u)
        a = rng.randrange(n * t)
        shifted[a] += form.factors[a % t] * rng.choice([1, 2, -1])
        assert quadratic_phase(k, form, tuple(shifted)) == base


def test_partition_function_worked_example():
    man = lens_presentation(2, 1)
    z = partition_function(((1, 1), (0, 2)), man)
    assert z == phase_sum({Fraction(0): 3, Fraction(1, 2): 1})
    assert z.total_multiplicity == 4
    v = eval_numeric(z)
    assert abs(complex(v) - 2) < 1e-12


def test_partition_function_bf_theory():
    for p, q, k in [(5, 2, 3), (6, 1, 4), (7, 3, 7), (9, 2, 6), (8, 3, 0)]:
        man = lens_presentation(p, q)
        z = partition_function(((0, k), (0, 0)), man)
        assert z.total_multiplicity == p * p  # one summand per group element
        assert all(m > 0 for _, m in z.items())
        assert abs(complex(eval_numeric(z)) - p * math.gcd(k, p)) < 1e-9


def test_partition_function_trivial_torsion():
    man = lens_presentation(1, 1)
    for c in [((3,),), ((1, 2), (0, 5)), ()]:
        z = partition_function(c, man)
        assert z == phase_sum({Fraction(0): 1})


def test_partition_function_conjugate_of_negated_coupling():
    rng = random.Random(402)
    for _ in range(20):
        l = rand_symmetric(rng, rng.randint(1, 3), -4, 4)
        man = presentation(l)
        n = rng.randint(1, 2)
        if man.form.order**n > 5000:
            continue
        c = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
        neg_c = tuple(tuple(-x for x in row) for row in c)
        assert conjugate(partition_function(c, man)) == partition_function(neg_c, man)


def test_partition_function_is_deterministic():
    man = lens_presentation(12, 5)
    c = ((2, 1), (3, 0))
    assert partition_function(c, man) == partition_function(c, man)


def test_partition_function_budget():
    man = lens_presentation(11, 1)
    with pytest.raises(BudgetExceededError):
        partition_function(((0, 1), (0, 0)), man, budget=100)


def test_partition_function_kirby_moves_leave_value_unchanged():
    rng = random.Random(403)
    for _ in range(20):
        l = rand_symmetric(rng, rng.randint(1, 3), -3, 3)
        man = presentation(l)
        if man.form.order**2 > 5000:
            continue
        c = rand_symmetric(rng, 2, -3, 3)
        s0 = partition_function(c, man)
        moved = kirby1(l, rng.choice([1, -1]))
        if len(moved) >= 2:
            i0, j0 = rng.sample(range(len(moved)), 2)
            moved = kirby2(moved, i0, j0, rng.choice([1, -1]))
        s1 = partition_function(c, presentation(moved))
        assert s1 == s0, (l, moved)
        z0, z1 = complex(eval_numeric(s0)), complex(eval_numeric(s1))
        assert abs(z0 - z1) < 1e-9


def test_coset_representatives_are_the_box_in_mixed_radix_order():
    k0 = ((2, 1, 0), (1, 4, 3), (0, 3, 8))
    reps, factors = coset_representatives(k0)
    form, gens = linking_form_with_generators(k0)
    assert factors == smith_normal_form(k0).invariant_factors()
    assert factors == (1,) * (3 - form.rank) + form.factors
    box = [
        tuple(sum(g[i] * c for g, c in zip(gens, cs)) for i in range(3))
        for cs in itertools.product(*(range(d) for d in form.factors))
    ]
    assert reps == box
    assert coset_representatives(()) == ([()], ())


def test_coset_representatives_cover_the_quotient():
    rng = random.Random(404)
    done = 0
    while done < 25:
        s = rng.randint(1, 3)
        k0 = rand_symmetric(rng, s, -4, 4)
        det = det_int(k0)
        if det == 0 or abs(det) > 40:
            continue
        done += 1
        reps, factors = coset_representatives(k0)
        assert len(reps) == abs(det) == math.prod(factors)
        inv = rat_inverse(k0)
        keys = set()
        for x in reps:
            key = tuple(
                sum(Fraction(inv[i][j]) * x[j] for j in range(s)) % 1
                for i in range(s)
            )
            keys.add(key)
        assert len(keys) == abs(det)  # pairwise distinct classes


def oracle_lattice_sum(l, k0, sign):
    """Independent enumeration: canonical first-seen class representatives
    from the box [0, |det|)^s, phases by direct Fraction arithmetic."""
    s = len(k0)
    m = len(l)
    det = det_int(k0)
    big = abs(det)
    inv = rat_inverse(k0)
    seen = {}
    for x in itertools.product(range(big), repeat=s):
        key = tuple(
            sum(Fraction(inv[i][j]) * x[j] for j in range(s)) % 1
            for i in range(s)
        )
        if key not in seen:
            seen[key] = x
    reps = list(seen.values())
    assert len(reps) == big
    terms = {}
    for combo in itertools.product(reps, repeat=m):
        val = Fraction(0)
        for i in range(m):
            for j in range(m):
                if l[i][j]:
                    val += l[i][j] * sum(
                        combo[i][a] * inv[a][b] * combo[j][b]
                        for a in range(s) for b in range(s)
                    )
        phase = Fraction(sign * val / 2) % 1
        terms[phase] = terms.get(phase, 0) + 1
    return phase_sum(terms)


def test_gauss_sum_worked_example():
    g = gauss_sum_over_lattice(((2,),), K_EXAMPLE, +1)
    assert g == phase_sum(
        {Fraction(0): 1, Fraction(1, 7): 2, Fraction(2, 7): 2, Fraction(4, 7): 2}
    )
    v = eval_numeric(g, 128)
    with mp.workprec(192):
        target_im = mp.sqrt(7)
        err = mp.hypot(v.re - 0, v.im - target_im)
        assert err < mp.mpf(10) ** -20


def test_gauss_sum_empty_summand():
    assert gauss_sum_over_lattice((), K_EXAMPLE, +1) == phase_sum({Fraction(0): 1})


def test_gauss_sum_against_independent_oracle():
    rng = random.Random(405)
    done = 0
    while done < 20:
        s = rng.randint(1, 2)
        m = rng.randint(1, 2)
        k0 = rand_even_symmetric(rng, s, -4, 4)
        det = det_int(k0)
        if det == 0 or abs(det) > 8:
            continue
        l = rand_symmetric(rng, m, -4, 4)
        sign = rng.choice([1, -1])
        done += 1
        assert gauss_sum_over_lattice(l, k0, sign) == oracle_lattice_sum(l, k0, sign)


def test_gauss_sum_even_modulus_is_representative_independent():
    # shift every fixed representative by a random lattice vector and redo
    # the sum by brute force: for an even modulus matrix nothing changes
    rng = random.Random(406)
    done = 0
    while done < 10:
        s = rng.randint(1, 2)
        k0 = rand_even_symmetric(rng, s, -4, 4)
        det = det_int(k0)
        if det == 0 or abs(det) > 10:
            continue
        l = rand_symmetric(rng, 1, -4, 4)
        done += 1
        reps, _ = coset_representatives(k0)
        inv = rat_inverse(k0)
        shifted = []
        for x in reps:
            t = [rng.randint(-2, 2) for _ in range(s)]
            shifted.append(tuple(
                x[i] + sum(k0[i][j] * t[j] for j in range(s)) for i in range(s)
            ))
        terms = {}
        for x in shifted:
            val = l[0][0] * sum(
                x[a] * inv[a][b] * x[b] for a in range(s) for b in range(s)
            )
            phase = Fraction(val) / 2 % 1
            terms[phase] = terms.get(phase, 0) + 1
        assert phase_sum(terms) == gauss_sum_over_lattice(l, k0, +1)


def test_gauss_sum_errors():
    with pytest.raises(ValueError):
        gauss_sum_over_lattice(((2,),), ((1, 2), (2, 4)), +1)  # singular
    with pytest.raises(ValueError):
        gauss_sum_over_lattice(((1, 2), (3, 4)), K_EXAMPLE, +1)  # asymmetric
    with pytest.raises(ValueError):
        gauss_sum_over_lattice(((2,),), K_EXAMPLE, 0)
    with pytest.raises(BudgetExceededError):
        gauss_sum_over_lattice(((2, 0), (0, 2)), K_EXAMPLE, +1, budget=10)


def test_eval_numeric_basics():
    # engine sums of exact integer values read exactly
    one = eval_numeric(partition_function(((3,),), lens_presentation(1, 1)))
    assert complex(one) == 1 + 0j
    assert (one.re, one.im) == (1, 0)
    two = eval_numeric(partition_function(((1, 1), (0, 2)), lens_presentation(2, 1)))
    assert (two.re, two.im) == (2, 0)
    zero = eval_numeric(partition_function(((1,),), lens_presentation(2, 1)))
    assert complex(zero) == 0j
    assert (zero.re, zero.im) == (0, 0)


def test_read_by_phases_reads_quarter_turns_exactly():
    one = read_by_phases(phase_sum({Fraction(0): 1}), 128)
    assert complex(one) == 1 + 0j
    assert (one.re, one.im) == (1, 0)
    i = read_by_phases(phase_sum({Fraction(1, 4): 1}), 128)
    assert abs(complex(i) - 1j) < 1e-30
    empty = read_by_phases(CyclotomicSum({}, 1), 128)
    assert complex(empty) == 0j
    assert (empty.re, empty.im) == (0, 0)
    quarters = read_by_phases(phase_sum(
        {Fraction(1, 4): 3, Fraction(1, 2): -2, Fraction(3, 4): 1}), 128)
    assert (quarters.re, quarters.im) == (2, 2)


def test_eval_numeric_rejects_precision_below_one_bit():
    # on the sum the engine builds and, phase by phase, on a hand-built one
    s = gauss_sum_over_lattice(((2,),), K_EXAMPLE, +1)
    hand_built = phase_sum({Fraction(1, 5): 2})
    for read, t in ((eval_numeric, s), (read_by_phases, hand_built)):
        for precision in (0, -1, -1000):
            with pytest.raises(ValueError, match="precision"):
                read(t, precision)
        for precision in (1, 2):
            assert_within_readout_bound(read(t, precision), t, precision)


def test_conjugate():
    s = phase_sum({Fraction(0): 3})
    assert conjugate(s) == s
    t = phase_sum({Fraction(1, 3): 2, Fraction(1, 2): 1})
    assert conjugate(t) == phase_sum({Fraction(2, 3): 2, Fraction(1, 2): 1})
    assert conjugate(conjugate(t)) == t


def test_magnitude_law_small():
    rng = random.Random(407)
    done = 0
    while done < 15:
        l = rand_symmetric(rng, rng.randint(1, 2), -4, 4)
        man = presentation(l)
        n = rng.randint(1, 2)
        if not 1 < man.form.order**n <= 2000:
            continue
        c = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        k = tuple(
            tuple(c[i][j] + c[j][i] for j in range(n)) for i in range(n)
        )
        done += 1
        z = complex(eval_numeric(partition_function(c, man)))
        total, rad_phases = brute_radical_terms(k, man.form)
        rad_value = sum(cmath.exp(2j * cmath.pi * float(p)) for p in rad_phases)
        assert abs(abs(z) ** 2 - total * rad_value.real) < 1e-9
        assert abs(rad_value.imag) < 1e-9
        if len(rad_phases) == 1:
            assert abs(abs(z) - math.sqrt(total)) < 1e-9


def enumerated_blocks(fn, *args):
    """Run fn, returning its result and the radix of every block the
    engine checked against the budget."""
    radices = []
    check = gauss._check_budget

    def spy(radix, ncopies, budget):
        radices.append(radix)
        return check(radix, ncopies, budget)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gauss, "_check_budget", spy)
        return fn(*args), radices


def engine_sum(counts, modulus, flip):
    """The sum of e^{2 pi i k/modulus} with multiplicity counts[k], as the
    engine builds it, conjugated when flip."""
    s = CyclotomicSum(counts, modulus)
    return conjugate(s) if flip else s


def enumerated_sum(coeff, form, sign):
    """The oracle: the whole box of the form enumerated as one block."""
    return engine_sum(block_counts(coeff, form), 2 * form.modulus, sign < 0)


def enumerated_lattice_sum(l, k0, sign):
    """The oracle for gauss_sum_over_lattice(l, k0, sign)."""
    form = gauss._nonsingular_torsion_module(k0)[0]
    return enumerated_sum(l, form, sign)


def is_prime_power(x):
    """True for p^e, e >= 0: a group of this order is a single block."""
    if x == 1:
        return True
    p = next(d for d in range(2, x + 1) if x % d == 0)
    while x % p == 0:
        x //= p
    return x == 1


def unimodular_congruence(seed, diag):
    """t(g) diag(diag) g for a random unimodular g: the same Gauss sums as
    diag(diag), with no structure left in the entries."""
    size = len(diag)
    g = rand_unimodular(random.Random(seed), size)
    d = tuple(tuple(diag[i] if i == j else 0 for j in range(size)) for i in range(size))
    return mat_mul(transpose(g), mat_mul(d, g))


@st.composite
def mixed_torsion_cases(draw):
    """(linking matrix, b1, torsion factors, coupling size n): b1 > 0 and
    torsion Z_d1 + Z_d2, d1 | d2, of order divisible by two primes."""
    n = draw(st.integers(1, 3))
    torsion = [
        (d1, d1 * k) for d1 in (2, 3, 4, 6) for k in range(1, 6)
        if not is_prime_power(d1 * k) and (d1 * d1 * k) ** n <= 8000
    ]
    d1, d2 = draw(st.sampled_from(torsion))
    b1 = draw(st.integers(1, 2))
    l = unimodular_congruence(draw(st.integers(0, 10**6)), [0] * b1 + [d1, d2])
    return l, b1, (d1, d2), n


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mixed_torsion_cases(), st.data())
def test_split_partition_function_equals_one_block(case, data):
    l, b1, factors, n = case
    man = presentation(l)
    assert (man.b1, man.form.factors) == (b1, factors)
    c = tuple(
        tuple(data.draw(st.integers(-4, 4)) for _ in range(n)) for _ in range(n)
    )
    split, radices = enumerated_blocks(partition_function, c, man)
    whole = enumerated_sum(coupling_to_even(c), man.form, -1)
    assert split == whole
    order = math.prod(factors)
    assert len(radices) >= 2 and math.prod(radices) == order
    assert all(is_prime_power(r) for r in radices)
    # a sum whose summands fit the budget never fails its convolution check
    assert partition_function(c, man, budget=order**n) == whole


@st.composite
def lattice_cases(draw):
    s = draw(st.integers(1, 2))
    m = draw(st.integers(1, 3))
    entries = st.integers(-6, 6)

    def symmetric(size, even):
        rows = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                rows[i][j] = rows[j][i] = draw(entries)
            if even:
                rows[i][i] = 2 * (rows[i][i] // 2)
        return tuple(tuple(row) for row in rows)

    if draw(st.booleans()):
        k0 = symmetric(s, draw(st.booleans()))
    else:
        # composite determinants, odd and even k0 alike
        diag = draw(st.lists(st.sampled_from([1, -1, 3, 6, -6, 10, 12, -15]),
                             min_size=s, max_size=s))
        k0 = unimodular_congruence(draw(st.integers(0, 10**6)), diag)
    det = det_int(k0)
    assume(det != 0 and abs(det) ** m <= 2000)
    l = symmetric(m, draw(st.booleans()))
    return l, k0, draw(st.sampled_from([1, -1]))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lattice_cases())
def test_split_lattice_sum_equals_one_block(case):
    l, k0, sign = case
    odd = any(l[i][i] % 2 for i in range(len(l))) and any(
        k0[i][i] % 2 for i in range(len(k0)))
    # an even pair is always a sum over the group; an odd one exactly when
    # no term depends on the representatives, and otherwise it is refused
    if representatives_matter(l, k0):
        assert odd
        with pytest.raises(ValueError, match="representatives"):
            gauss_sum_over_lattice(l, k0, sign)
        return
    split, radices = enumerated_blocks(gauss_sum_over_lattice, l, k0, sign)
    assert split == enumerated_lattice_sum(l, k0, sign)
    order = abs(det_int(k0))
    assert math.prod(radices) == order
    assert all(is_prime_power(r) for r in radices)
    if is_prime_power(order):
        assert len(radices) == 1
    else:
        assert len(radices) > 1


def test_odd_pairs_split_only_when_representatives_cannot_matter():
    # quotient Z_15 with form 1/15: moving x by 15 moves x^2/30 by 1/2, so
    # the odd pair is refused, and the even summand splits
    k0 = ((1, 0), (0, 15))
    assert representatives_matter(((1,),), k0)
    for budget in (None, 0):  # refused before the budget is looked at
        with pytest.raises(ValueError, match="representatives"):
            gauss_sum_over_lattice(((1,),), k0, 1, budget)
    _, radices = enumerated_blocks(gauss_sum_over_lattice, ((2,),), k0, +1)
    assert sorted(radices) == [3, 5]
    # quotient Z_12 with form 1/12: x^2/24 is a function on Z_12, so the
    # odd pair splits and equals the enumerated sum
    k0 = ((1, 0), (0, 12))
    assert not representatives_matter(((1,),), k0)
    split, radices = enumerated_blocks(gauss_sum_over_lattice, ((1,),), k0, +1)
    assert sorted(radices) == [3, 4]
    assert split == enumerated_lattice_sum(((1,),), k0, +1)


def test_budget_bounds_each_block():
    # lens(2000) = Z_16 + Z_125: blocks of 16^2 and 125^2 = 15625 summands
    man = lens_presentation(2000, 1)
    c = ((1, 2), (0, 3))
    z, radices = enumerated_blocks(partition_function, c, man, 16_000)
    assert sorted(radices) == [16, 125]
    assert z.total_multiplicity == 2000**2
    with pytest.raises(BudgetExceededError):
        partition_function(c, man, budget=15_000)


def test_trial_division_stops_at_the_budget():
    # primes beyond the budget are never divided out: what is left is one
    # part, and its block fails the budget check
    p, q = 1_000_003, 1_000_033
    assert gauss._coprime_parts(12 * p * q, 1, 10**7) == [(2, 4), (3, 3), (p, p), (q, q)]
    assert gauss._coprime_parts(12 * p * q, 1, 100) == [(2, 4), (3, 3), (None, p * q)]
    assert gauss._coprime_parts(12 * p * q, 2, 100) == [(2, 4), (3, 3), (None, p * q)]
    with pytest.raises(BudgetExceededError):
        partition_function(((1,),), lens_presentation(6 * p, 1), budget=10**5)


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
LARGE_PRIMES = (1_000_003, 1_000_033, 10**14 + 31)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=6, max_size=6),
       st.lists(st.sampled_from(LARGE_PRIMES), max_size=2, unique=True),
       st.integers(1, 3), st.sampled_from([100, 10**4, 10**7]))
def test_trial_division_labels_each_part_with_its_prime(exps, large, n, budget):
    powers = {p: e for p, e in zip(SMALL_PRIMES, exps) if e}
    powers.update((p, 1) for p in large)
    x = math.prod(p**e for p, e in powers.items())
    assume(x > 1)
    parts = gauss._coprime_parts(x, n, budget)
    assert math.prod(q for _, q in parts) == x
    assert None not in [p for p, _ in parts[:-1]]
    for p, q in parts:
        if p is not None:
            assert p in powers and q == p ** powers[p]
    p, rest = parts[-1]
    if p is None:
        # a leftover the budget stopped: every block built from it is refused
        assert all(r**n > budget for r in powers if rest % r == 0)
        with pytest.raises(BudgetExceededError, match="summands"):
            partition_function(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
                               lens_presentation(x, 1), budget=budget)


def test_budget_bounds_each_convolution_step():
    # lens(1009 * 1013), n = 1: both blocks fit a budget of 10^5, but
    # combining them pairs about 10^6 phases, so it is refused before
    # either block is enumerated
    p, q = 1009, 1013
    man = lens_presentation(p * q, 1)
    with pytest.raises(BudgetExceededError, match="convolving"):
        enumerated_blocks(partition_function, ((1,),), man, 10**5)
    z, radices = enumerated_blocks(partition_function, ((1,),), man, 2 * 10**6)
    assert sorted(radices) == [p, q] and z.total_multiplicity == p * q
    # 2 * 3 * ... * 31: every block is tiny, but the phases multiply
    order = math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
    with pytest.raises(BudgetExceededError, match="convolving"):
        partition_function(((1,),), lens_presentation(order, 1))
    # the same holds for the lattice sums: the quotient Z_(p q) with n = 1
    with pytest.raises(BudgetExceededError, match="convolving"):
        gauss_sum_over_lattice(((2,),), ((p * q,),), 1, budget=10**5)


def assert_within_readout_bound(value, s, precision):
    """Each component within 2 * 2^-precision * max(1, |ref|) of ref, the
    per-phase expjpi sum at 2 * precision + 64 bits."""
    assert value.precision == precision
    with mp.workprec(2 * precision + 64):
        re = im = mp.mpf(0)
        for phase, mult in s.items():
            z = mp.expjpi(2 * mp.mpf(phase.numerator) / phase.denominator)
            re += mult * z.real
            im += mult * z.imag
        bound = 2 * mp.mpf(2) ** -precision * max(1, mp.hypot(re, im))
        assert abs(value.re - re) <= bound
        assert abs(value.im - im) <= bound


def _with_multiplicities(s, mode, rng):
    """s with its multiplicities redrawn: as built, all negative, from two
    repeated values, or all distinct; an engine sum keeps its integer keys,
    and only one as built keeps its carried value."""
    if mode == "as built":
        return s
    keys = list(s._counts)
    if mode == "negative":
        mults = [rng.randint(-9, -1) for _ in keys]
    elif mode == "repeated":
        mults = [rng.choice([3, -2]) for _ in keys]
    else:
        mults = rng.sample(range(1, 4 * len(keys) + 1), len(keys))
        mults = [m if rng.random() < 0.5 else -m for m in mults]
    return CyclotomicSum(dict(zip(keys, mults)), s._modulus)


@st.composite
def readout_cases(draw):
    """(sum, precision): engine partition and lattice sums, dense sums with
    L <= 5000, mid-size ones with L <= 10^9, sparse ones with L ~ 10^30 and
    at most 60 phases, sums over unrelated denominators up to 10^9 or
    10^12, and sums with L = 1, 2 or 4; each with its multiplicities as
    built, all negative, repeated or all distinct.  An engine sum as built
    is read from its carried value (eval_numeric), every other sum phase by
    phase (read_by_phases)."""
    kind = draw(st.sampled_from(["partition", "lattice", "dense", "mid", "sparse",
                                 "unrelated", "several", "tiny"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "partition":
        p = rng.randint(1, 600)
        q = rng.choice([q for q in range(1, p + 1) if math.gcd(p, q) == 1])
        n = rng.randint(1, 2)
        c = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        s = partition_function(c, lens_presentation(p, q))
    elif kind == "lattice":
        k0 = rand_even_symmetric(rng, 2, -8, 8)
        assume(det_int(k0) != 0)
        l = rand_symmetric(rng, rng.randint(1, 2), -4, 4)
        s = gauss_sum_over_lattice(l, k0, rng.choice([1, -1]))
    elif kind == "dense":
        den = rng.randint(1, 5000)
        s = phase_sum((Fraction(rng.randrange(den), den), rng.randint(-1000, 1000))
                      for _ in range(rng.randint(1, min(den, 1500))))
    elif kind == "mid":
        den = rng.randint(1, 10**9)
        s = phase_sum((Fraction(rng.randrange(den), den), rng.randint(-10**6, 10**6))
                      for _ in range(rng.randint(1, 300)))
    elif kind == "sparse":
        den = rng.randint(10**29, 10**31)
        terms = []
        for _ in range(rng.randint(1, 60)):
            d = den // rng.choice([1, 2, 3, 7])
            terms.append((Fraction(rng.randrange(d), d), rng.randint(-5, 5)))
        s = phase_sum(terms)
    elif kind == "unrelated":
        terms = []
        for _ in range(rng.randint(1, 60)):
            d = rng.randint(1, 10**9)
            terms.append((Fraction(rng.randrange(d), d), rng.randint(-5, 5)))
        s = phase_sum(terms)
    elif kind == "several":
        dens = [rng.randint(10**8, 10**12) for _ in range(rng.randint(12, 30))]
        s = phase_sum((Fraction(rng.randrange(1, d), d), rng.randint(1, 5))
                      for d in dens)
    else:
        den = rng.choice([1, 2, 4])
        s = phase_sum((Fraction(rng.randrange(den), den), rng.randint(-5, 5))
                      for _ in range(rng.randint(0, 6)))
    mode = draw(st.sampled_from(["as built", "negative", "repeated", "distinct"]))
    return _with_multiplicities(s, mode, rng), draw(st.sampled_from([53, 128, 256]))


def readout(s, precision):
    """An engine sum's carried value rounded, or a sum that carries none
    read phase by phase."""
    return (read_by_phases if s._value is None else eval_numeric)(s, precision)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(readout_cases())
def test_readout_is_within_its_error_bound(case):
    s, precision = case
    assert_within_readout_bound(readout(s, precision), s, precision)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(readout_cases())
def test_readout_is_within_its_bound_of_the_reference_walk(case):
    # each root of the reference walk within (2.5 sum |mult| k + 1) 2^-W a
    # component of a finer per-phase sum, the roots split only when their
    # lcm outgrows REFERENCE_ROOT_BITS; the value within its readout bound,
    # and within twice that bound of the walk
    s, precision = case
    mults = [m for _, m in s.items()]
    slack = (precision + len(s).bit_length() + sum(abs(m) for m in mults).bit_length() + 8)
    roots = root_groups(s)
    lcm = math.lcm(*(phase.denominator for phase, _ in s.items()))
    assert (len(roots) > 1) == (lcm.bit_length() > REFERENCE_ROOT_BITS)
    assert sum(len(keys) for _, keys, _ in roots) == len(s)
    for den, keys, ms in roots:
        assert all(a < b for a, b in zip(keys, keys[1:]))
        width = slack + 2 * den.bit_length()
        re, im = reference_root_walk(den, list(zip(keys, ms)), width)
        with mp.workprec(max(2 * precision, width) + 64):
            ref = mp.fsum(m * mp.expjpi(2 * mp.mpf(k) / den) for k, m in zip(keys, ms))
            bound = (mp.mpf(5) / 2 * sum(abs(m) * k for k, m in zip(keys, ms)) + 1) \
                * mp.mpf(2) ** -width
            assert abs(mp.ldexp(re, -width) - ref.real) <= bound
            assert abs(mp.ldexp(im, -width) - ref.imag) <= bound
    value = readout(s, precision)
    assert_within_readout_bound(value, s, precision)
    re, im = reference_eval_numeric(s, precision)
    with mp.workprec(2 * precision + 64):
        bound = 4 * mp.mpf(2) ** -precision * max(1, mp.hypot(re, im))
        assert abs(value.re - re) <= bound and abs(value.im - im) <= bound


def test_engine_sums_read_out_as_their_carried_value():
    # an engine sum and its conjugate are read as their exact value,
    # correctly rounded: no phase is read numerically, so an exact 0
    # component reads 0, as it does for lens:7,2 with this coupling
    rng = random.Random(2424)
    sums = [partition_function(((1, 1), (0, 1)), lens_presentation(7, 2))]
    while len(sums) < 40:
        p = rng.randint(1, 600)
        q = rng.choice([q for q in range(1, p + 1) if math.gcd(p, q) == 1])
        n = rng.randint(1, 2)
        c = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        sums.append(partition_function(c, lens_presentation(p, q)))
        k0 = rand_even_symmetric(rng, 2, -8, 8)
        if det_int(k0):
            l = rand_symmetric(rng, rng.randint(1, 2), -4, 4)
            sums.append(gauss_sum_over_lattice(l, k0, rng.choice([1, -1])))
    for s in sums:
        for t in (s, conjugate(s)):
            for precision in (1, 53, 128, 256):
                got, want = eval_numeric(t, precision), t._value.components(precision)
                assert (got.re, got.im, got.precision) == (want.re, want.im, want.precision)
    lens = eval_numeric(sums[0], 128)
    assert (lens.re, lens.im) == (7, 0)
    for precision in (0, -1):
        with pytest.raises(ValueError, match="precision"):
            eval_numeric(sums[0], precision)
    # the same keys built without a value have no numeric readout
    hand_built = CyclotomicSum(sums[0]._counts, sums[0]._modulus)
    for precision in (0, 1, 128):
        with pytest.raises(ValueError, match="carries no value"):
            eval_numeric(hand_built, precision)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.booleans())
def test_items_order_and_private_constructor(seed, flip):
    rng = random.Random(seed)
    dens = [rng.randint(1, 10**rng.randint(1, 12)) for _ in range(rng.randint(1, 4))]
    terms = {}
    for _ in range(rng.randint(0, 40)):
        d = rng.choice(dens)
        terms[Fraction(rng.randrange(d), d)] = rng.choice([-2, -1, 1, 3])
    s = phase_sum(terms)
    assert s.items() == tuple(sorted(terms.items()))

    modulus = rng.randint(1, 10**6)
    counts = {rng.randrange(modulus): rng.choice([-4, -1, 1, 7])
              for _ in range(rng.randint(0, 30))}
    built = engine_sum(counts, modulus, flip)
    sign = -1 if flip else 1
    public = phase_sum((Fraction(sign * k, modulus), v) for k, v in counts.items())
    assert built == public
    assert built.items() == public.items()
    assert repr(built) == repr(public)


# p-primary structures for the Jordan path: ("lens", d) is the lens chain
# of L(d, q) with a random unit q, whose form is -q/d on Z_d; ("H", d) is
# d ((0, 1), (1, 0)), the hyperbolic form on Z_d + Z_d; ("E", d) is
# d ((2, 1), (1, 2)), on Z_d + Z_3d, whose 2-block does not diagonalize
JORDAN_STRUCTURES = [
    (("lens", 2),), (("lens", 8),), (("lens", 32),), (("lens", 3),),
    (("lens", 27),), (("lens", 25),), (("lens", 7),),
    (("lens", 4), ("lens", 4), ("lens", 4)), (("lens", 9), ("lens", 27)),
    (("lens", 2), ("lens", 8)), (("lens", 3), ("lens", 3)),
    (("lens", 12),), (("lens", 6), ("lens", 18)),
    (("H", 2),), (("H", 4),), (("E", 2),), (("E", 4),), (("H", 2), ("lens", 4)),
]


def block_diagonal(blocks):
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return tuple(map(tuple, out))


@st.composite
def jordan_cases(draw):
    """(linking matrix, its torsion order, an even K, a summand matrix l
    for the lattice sum over it, sign): K is random, 0 mod a prime of the
    group, or singular mod that prime."""
    structure = draw(st.sampled_from(JORDAN_STRUCTURES))
    pieces = []
    for kind, d in structure:
        if kind == "lens":
            q = draw(st.sampled_from([q for q in range(1, d + 1) if math.gcd(q, d) == 1]))
            pieces.append(lens_presentation(d, q).matrix)
        elif kind == "H":
            pieces.append(((0, d), (d, 0)))
        else:
            pieces.append(((2 * d, d), (d, 2 * d)))
    link = block_diagonal(pieces)
    if draw(st.booleans()):
        g = rand_unimodular(random.Random(draw(st.integers(0, 10**6))), len(link))
        link = mat_mul(transpose(g), mat_mul(link, g))
    order = abs(det_int(link))
    n = draw(st.integers(1, 4))
    assume(order**n <= 6000)
    p = min(q for q in range(2, order + 1) if order % q == 0)
    entries = st.integers(-6, 6)
    k = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            k[i][j] = k[j][i] = draw(entries)
        k[i][i] = 2 * (k[i][i] // 2)
    kind = draw(st.sampled_from(["random", "zero mod p", "singular mod p"]))
    if kind == "zero mod p":
        k = [[p * x for x in row] for row in k]
    elif kind == "singular mod p":
        a = [draw(entries) for _ in range(n)]
        k = [[2 * a[i] * a[j] + p * k[i][j] for j in range(n)] for i in range(n)]
    l = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            l[i][j] = l[j][i] = draw(entries)
    return (link, order, tuple(map(tuple, k)), tuple(map(tuple, l)),
            draw(st.sampled_from([1, -1])))


def upper_coupling(k):
    """A coupling c with c + t(c) = k, for an even k."""
    n = len(k)
    return tuple(tuple(k[i][j] // 2 if i == j else k[i][j] if i < j else 0
                       for j in range(n)) for i in range(n))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(jordan_cases())
def test_jordan_blocks_equal_the_enumerated_block(case):
    link, order, k, l, sign = case
    man = presentation(link)
    assert man.form.order == order
    form = man.form
    modulus = 2 * form.modulus  # the engine's key modulus
    n = len(k)
    # every prime block takes the Jordan path and counts what enumerating it counts
    for p, block in gauss._primary_blocks(form, modulus, n, 10**7):
        split = gauss._block_summands(k, block, p, modulus)
        assert gauss._jordan_counts(split, p, modulus) == block_counts(k, block)
    assert partition_function(upper_coupling(k), man) == enumerated_sum(k, form, -1)
    # the lattice sum over the linking matrix as modulus matrix, l odd or
    # even; an odd l whose terms depend on the representatives is refused
    if representatives_matter(l, link):
        with pytest.raises(ValueError, match="representatives"):
            gauss_sum_over_lattice(l, link, sign)
    else:
        assert gauss_sum_over_lattice(l, link, sign) == enumerated_lattice_sum(l, link, sign)
    assert gauss_sum_over_lattice(k, link, sign) == enumerated_lattice_sum(k, link, sign)


@st.composite
def jordan_forms(draw):
    """(symmetric matrix mod p^m, p, m): each entry a random residue times
    p to a drawn power, 0 included, with the diagonal's power sometimes
    raised above the off-diagonal entries', so that odd p pivots off the
    diagonal and p = 2 takes rank-2 pivots."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(1, 5))
    n = draw(st.integers(0, 6))
    big = p**m
    lift = draw(st.integers(0, 2))
    s = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = draw(st.integers(0, m)) + (lift if i == j else 0)
            s[i][j] = s[j][i] = draw(st.integers(0, big - 1)) * p ** min(v, m) % big
    return s, p, m


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(jordan_forms())
@example((((0, 1), (1, 0)), 3, 2))      # odd p: an off-diagonal pivot
@example((((0, 1), (1, 0)), 2, 3))      # p = 2: a rank-2 pivot
@example((((4, 2), (2, 4)), 2, 3))      # p = 2: x^2 + x y + y^2 at v = 1
@example((((0, 0), (0, 0)), 5, 2))      # a zero block
@example((((9, 0), (0, 18)), 3, 2))     # every entry 0 mod p^m
def test_jordan_summands_equal_the_reference_split(case):
    s, p, m = case
    ours = [list(row) for row in s]
    theirs = [list(row) for row in s]
    assert gauss._jordan_summands(ours, p, m) == reference_jordan_summands(theirs, p, m)
    assert ours == theirs  # the same matrix is left behind


def test_jordan_reference_cases_reach_every_pivot_kind():
    # the explicit cases above reach an odd off-diagonal pivot (2 x y =
    # 2 (x + y/2)^2 - y^2/2 over Z/9, and -1/2 = 4 mod 9), a 2-adic rank-2
    # pivot and the empty split of a zero block
    assert gauss._jordan_summands([[0, 1], [1, 0]], 3, 2) == [(0, (2,)), (0, (4,))]
    assert gauss._jordan_summands([[0, 1], [1, 0]], 2, 3) == [(0, (0, 1, 1, 0))]
    assert gauss._jordan_summands([[0, 0], [0, 0]], 5, 2) == []
    assert gauss._jordan_summands([[9, 0], [0, 18]], 3, 2) == []


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7), st.data())
def test_rank_two_summands_equal_their_enumeration(m, data):
    # 2^v (a x^2 + 2 b x y + c y^2), b odd, a and c even, on a box of side
    # 2^min(m - v, e) with e >= m - v - 1, as the summand's group allows
    v = data.draw(st.integers(0, m - 1))
    e = data.draw(st.integers(m - v - 1, m - v + 1))
    r = 2 ** (m - v)
    a, c = (2 * data.draw(st.integers(0, r)) for _ in range(2))
    b = 2 * data.draw(st.integers(0, r)) + 1
    entries = tuple(x * 2**v % 2**m for x in (a, b, b, c))
    counts, h = gauss._summand_counts(v, entries, 2, m, e)
    assert h == min(m - v, e)
    side = range(2**h)
    assert counts == Counter(
        (entries[0] * x * x + 2 * entries[1] * x * y + entries[3] * y * y) % 2**m
        for x in side for y in side)


def test_even_sums_never_enumerate_a_block():
    hidden = presentation(unimodular_congruence(11, [4, 12, 12]))
    partitions = [
        (((1, 2), (0, 3)), lens_presentation(2000, 3)),
        (((1, 2), (0, 3)), lens_presentation(3001, 1)),
        (((1, 2, 0), (0, 1, 3), (1, 0, 2)), lens_presentation(211, 1)),
        (((0, 1), (0, 0)), lens_presentation(2**11 * 3**5, 5)),
        (((2, 1), (0, 1)), hidden),
    ]
    lattices = [  # an even summand matrix, then an even modulus matrix
        (((2, 1), (1, 4)), ((2, 1), (1, 210))),
        (((1, 0), (0, 3)), ((2, 1), (1, 216))),
    ]
    for c, man in partitions:
        z = partition_function(c, man)
        assert z.total_multiplicity == man.form.order ** len(c)
    for l, k0 in lattices:
        for sign in (1, -1):
            z = gauss_sum_over_lattice(l, k0, sign)
            assert z.total_multiplicity == abs(det_int(k0)) ** len(l)


def test_certified_primes():
    sieve = bytearray([1]) * 20000
    sieve[0] = sieve[1] = 0
    for p in range(2, 142):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    assert [x for x in range(20000) if gauss._certified_prime(x)] == \
        [x for x in range(20000) if sieve[x]]
    # strong pseudoprimes to the prime bases up to 7, 23 and 37
    for x in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not gauss._certified_prime(x)
    for p in (10**14 + 31, 10**20 + 39, 10**24 + 7):
        assert gauss._certified_prime(p)
    # beyond the bound nothing is certified
    assert not gauss._certified_prime(10**40 + 121)


def test_a_prime_cofactor_ends_trial_division():
    for p in (10**14 + 31, 10**20 + 39, 10**24 + 7):
        assert gauss._coprime_parts(p, 1, 10**7) == [(p, p)]
        assert gauss._coprime_parts(12 * p, 2, 10**7) == [(2, 4), (3, 3), (p, p)]
    # trial division up to the budget would take 5 * 10^7 divisions here
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        partition_function(((1,),), lens_presentation(10**24 + 7, 1), budget=10**8)
    assert time.perf_counter() - start < 1.0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.booleans())
def test_engine_sums_read_out_like_their_phases(seed, flip):
    # a sum built from integer keys, against the same phases given to
    # phase_sum: the same per-phase readout bit for bit, the same terms
    rng = random.Random(seed)
    modulus = rng.choice([1, 2, 12, 2 * 3**5, 2**13 * 3**5, rng.randint(1, 10**6)])
    step = math.gcd(modulus, rng.choice([1, 2, 3, 4, 8, 9]))
    counts = {rng.randrange(0, modulus, step): rng.choice([-3, 1, 2, 5])
              for _ in range(rng.randint(1, 50))}
    built = engine_sum(counts, modulus, flip)
    public = phase_sum(built.items())
    for precision in (53, 256):
        a, b = read_by_phases(built, precision), read_by_phases(public, precision)
        assert (a.re, a.im) == (b.re, b.im)
    assert built == public and public == built
    assert (len(built), built.total_multiplicity) == (len(public), public.total_multiplicity)
    # the same phases over a multiple of the modulus
    scaled = engine_sum({3 * k: v for k, v in counts.items()}, 3 * modulus, flip)
    assert scaled == built and built == scaled


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.booleans())
def test_conjugate_and_phase_doc_of_engine_sums_match_the_fraction_path(seed, flip):
    # the integer-key shortcuts in conjugate and in cli's phase list, against
    # the Fraction path, on an engine sum and on the same phases given to
    # phase_sum
    rng = random.Random(seed)
    modulus = rng.choice([1, 2, 12, 2 * 3**5, rng.randint(1, 10**6)])
    step = math.gcd(modulus, rng.choice([1, 2, 3, 4, 8, 9]))
    counts = {rng.randrange(0, modulus, step): rng.choice([-3, 1, 2, 5])
              for _ in range(rng.randint(0, 50))}
    built = engine_sum(counts, modulus, flip)
    public = phase_sum(built.items())
    for s in (built, public):
        phases = json.loads(_dumps(_phases_doc(s)))
        assert phases == [[f"{p.numerator}/{p.denominator}", m] for p, m in s.items()]
        got = conjugate(s)
        want = phase_sum((-p % 1, m) for p, m in s.items())
        assert got == want and want == got
        assert got.items() == want.items()
        assert repr(got) == repr(want)
        a, b = read_by_phases(got, 128), read_by_phases(want, 128)
        assert (a.re, a.im) == (b.re, b.im)
        assert conjugate(got) == s


# The closed form: gauss._gauss_value reads every engine sum as
# sqrt(N) e^{2 pi i j/8} from the Jordan summands of its blocks, with the
# histogram engine, read phase by phase, as its oracle


def closed_form_kinds(coeff, link, sign, value):
    """What the closed form of a sum had to handle, by name."""
    man = presentation(link)
    modulus = 2 * man.form.modulus
    kinds = {"sign -1"} if sign < 0 else set()
    blocks = gauss._primary_blocks(man.form, modulus, len(coeff), 10**9)
    if len(blocks) > 1:
        kinds.add("multi-prime")
    for p, block in blocks:
        m, _, _, summands = gauss._block_summands(coeff, block, p, modulus)
        for v, entries in summands:
            if len(entries) > 1:
                a, b, _, c = (x >> v for x in entries)
                kinds.add("2-adic x y" if (a * c - b * b) % 8 == 7 else "2-adic x^2 + x y + y^2")
            elif p == 2 and m - v == 1:
                kinds.add("2-adic level 1")
    if value.norm == 0:
        kinds.add("0")
    if man.b1:
        kinds.add("b1 > 0")
    if det_int(coeff) == 0:
        kinds.add("singular coefficient")
    return kinds


def assert_closed_form_reads_the_histogram(coeff, link, sign, budget=20_000):
    """The closed form refuses what the histogram refuses, alike, and
    otherwise lies within read_by_phases' proven bound of the histogram's
    200-bit readout, phase by phase: each component within
    1.01 * 2^-200 * max(1, |value|).  Returns the closed form, or None for
    a refused sum."""
    form = presentation(link).form
    try:
        s = gauss._gauss_sum(signed(coeff, sign), form, budget)
    except (ValueError, BudgetExceededError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            gauss._gauss_value(signed(coeff, sign), form, budget)
        return None
    value = gauss._gauss_value(signed(coeff, sign), form, budget)
    assert value.norm.denominator == 1 and 0 <= value.eighth < 8
    assert value.norm or value.eighth == 0
    read = read_by_phases(s, 200)
    # 400 bits stand in for the exact closed form
    exact = value.components(400)
    with mp.workprec(420):
        size = max(1, mp.sqrt(value.norm.numerator))
        bound = mp.mpf(1.01) * mp.mpf(2) ** -200 * size + mp.mpf(2) ** -399 * size
        assert abs(read.re - exact.re) <= bound
        assert abs(read.im - exact.im) <= bound
    return value


# (linking matrix, coefficient, sign, what the case covers)
CLOSED_FORM_CASES = [
    (((2,),), ((2, 2), (2, 2)), 1, {"2-adic level 1", "0", "singular coefficient"}),
    (((-2,),), ((-2, -3), (-3, 0)), 1, {"2-adic x y"}),
    (((-2,),), ((-2, 1), (1, 2)), -1, {"2-adic x^2 + x y + y^2", "sign -1"}),
    (((-2, -2), (-2, 1)), ((2,),), 1, {"multi-prime", "2-adic level 1", "0"}),
    (((2, 0), (0, 0)), ((1, -1), (-1, 1)), -1, {"b1 > 0", "singular coefficient", "sign -1"}),
    (((4, 2), (2, 8)), ((1, 3), (3, 0)), 1, {"2-adic x y"}),
    (((2, 2, 0), (2, 2, 0), (0, 0, 5)), ((2, 1), (1, 2)), -1, {"b1 > 0", "sign -1"}),
    (((12,),), ((1,),), 1, {"multi-prime"}),
]


@pytest.mark.parametrize("link, coeff, sign, kinds", CLOSED_FORM_CASES,
                         ids=range(len(CLOSED_FORM_CASES)))
def test_closed_form_covers_each_kind_of_summand(link, coeff, sign, kinds):
    value = assert_closed_form_reads_the_histogram(coeff, link, sign)
    assert kinds <= closed_form_kinds(coeff, link, sign, value)


@st.composite
def closed_form_cases(draw):
    """(linking matrix, coefficient, sign): the Jordan structures above with
    their even K or their odd or even l, or a singular linking matrix (b1 >
    0) with a singular or nonsingular, odd or even coefficient."""
    if draw(st.booleans()):
        link, _, k, l, sign = draw(jordan_cases())
        return link, draw(st.sampled_from([k, l])), sign
    link = draw(symmetric_matrices(4, singular=True))
    coeff = draw(symmetric_matrices(3, singular=draw(st.booleans()), even=draw(st.booleans())))
    return link, coeff, draw(st.sampled_from([1, -1]))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(closed_form_cases())
def test_closed_form_is_within_the_readout_bound_of_the_histogram(case):
    link, coeff, sign = case
    assert_closed_form_reads_the_histogram(coeff, link, sign)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(jordan_cases())
def test_engine_sums_carry_their_closed_form(case):
    # the value read from the same split as the histogram is the closed
    # form read alone, for both signs; conjugation carries it along
    link, _, k, l, _ = case
    man = presentation(link)
    lattice_form, _ = gauss._nonsingular_torsion_module(link)
    for coeff in (k, l):
        for sign in (1, -1):
            if coeff is l and representatives_matter(l, link):
                continue
            s = gauss._gauss_sum(signed(coeff, sign), man.form, None)
            assert s._value == gauss._gauss_value(signed(coeff, sign), man.form, None)
            assert conjugate(s)._value == s._value.conjugate()
            # the engine on -coeff is the conjugate sum, phase for phase
            assert gauss._gauss_sum(signed(coeff, -sign), man.form, None) == conjugate(s)
            lattice =gauss_sum_over_lattice(coeff, link, sign)
            assert lattice._value == gauss._gauss_value(signed(coeff, sign), lattice_form, None)
    z = partition_function(upper_coupling(k), man)
    assert z._value == gauss._gauss_value(signed(k, -1), man.form, None)
    for hand_built in (phase_sum(z.items()), CyclotomicSum(z._counts, z._modulus)):
        assert hand_built == z and hand_built._value is None
        assert conjugate(hand_built)._value is None


def test_closed_form_of_an_even_form_is_milgrams():
    # sum over T of e^{pi i t(x) L^-1 x} = sqrt|T| e^{2 pi i sigma(L)/8} for a
    # nondegenerate even L (Milgram), sigma from the exact signature
    rng = random.Random(2121)
    done = 0
    while done < 200:
        link = rand_even_symmetric(rng, rng.randint(1, 4), -6, 6)
        order = abs(det_int(link))
        if order == 0:
            continue
        done += 1
        value = gauss._gauss_value(((1,),), presentation(link).form, None)
        assert value == gauss._Exact(Fraction(order), signature(link) % 8), link


def rounded_by_mpmath(norm, eighth, precision, work):
    """sqrt(norm) e^{2 pi i eighth/8} evaluated by mpmath at `work` bits,
    then rounded to `precision` bits."""
    with mp.workprec(work):
        z = mp.sqrt(mp.mpf(norm.numerator) / norm.denominator) * mp.expjpi(mp.mpf(eighth) / 4)
    with mp.workprec(precision):
        return +z.real, +z.imag


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**300), st.integers(1, 2**80), st.integers(0, 7),
       st.integers(53, 600))
@example(4**200 * 9, 1, 0, 128)
@example((2**128 + 1) ** 2, 1, 4, 128)
@example(2 * (2**127 + 1) ** 2, 2**254, 1, 128)
def test_components_are_mpmath_at_twice_the_precision_rounded(num, den, eighth, precision):
    value = gauss._Exact(Fraction(num, den), eighth if num else 0)
    got = value.components(precision)
    assert got.precision == precision
    assert (got.re, got.im) == rounded_by_mpmath(value.norm, value.eighth, precision,
                                                 2 * precision)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**40), st.integers(1, 2**20), st.integers(0, 7), st.integers(1, 24))
@example(9, 4, 0, 1)    # sqrt = 3/2, halfway between 1 and 2: ties to 2
@example(25, 4, 0, 2)   # sqrt = 5/2, halfway between 2 and 3: ties to 2
@example(49, 4, 4, 2)   # sqrt = 7/2, halfway between 3 and 4: ties to -4
def test_components_are_correctly_rounded_at_any_precision(num, den, eighth, precision):
    # against mpmath far beyond the rounding point, where rounding twice
    # cannot differ from rounding once; ties to even included
    value = gauss._Exact(Fraction(num, den), eighth)
    got = value.components(precision)
    assert (got.re, got.im) == rounded_by_mpmath(value.norm, eighth, precision,
                                                 4 * precision + 64)


def test_components_of_zero_and_of_a_precision_below_one_bit():
    zero = gauss._ZERO.components(128)
    assert zero.re == 0 and zero.im == 0
    assert gauss._ONE.components(1) == (1, 0, 1)
    with pytest.raises(ValueError, match="at least 1 bit"):
        gauss._ONE.components(0)
