"""Exact Gauss sums and the abelian Chern-Simons partition function.

A phase is a reduced Fraction r in [0,1) standing for e^{2 pi i r}; a
Gauss sum is a finite multiset of phases with integer multiplicities
(CyclotomicSum).  Sums are built exactly -- the only place floating point
appears is eval_numeric, which turns a finished sum into a high-precision
complex number for cross-formula comparisons.  It writes every phase as
k/L over the lcm L of the denominators and reads the sum out of one root
of unity e^{2 pi i/L}: one transcendental call per sum, then exact
fixed-point integer powers, O(log L) squarings plus one product per set
bit of each gap between consecutive residues, and one final rounding.
Denominators whose lcm exceeds 128 bits are split into groups below that
size, one root each; an engine sum has L at most twice the exponent of
its group, so it is one group unless that exponent exceeds 2^127.

The partition function of a U(1)^n theory with integer coupling matrix C
on a manifold with torsion group T and linking form Q is the sum over
T^n, in fundamental representatives u_i in [0, p_i), of
e^{- pi i t(u) (K x Q) u} with K = C + t(C); the even diagonal of K is
exactly what makes each term independent of the representative choice.

Both that sum and the lattice sums of the reciprocity identity go through
one engine over a finite quadratic module: cyclic generators with their
orders, an integer Gram matrix and a modulus, read off the linking form
of the manifold or of the lattice sum's modulus matrix.  When each term
depends only on the group element, the module splits orthogonally into
p-primary blocks and the phase histogram over T^n is the cyclic
convolution of the block histograms: sum over p of |T_p|^n summands, not
|T|^n, plus the convolution, whose steps cost at most the product of the
key counts of the blocks so far times the next block's.  The term budget bounds every
enumerated block and every convolution step.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .exactmat import is_symmetric
from .homology import _torsion_module
from .surgery import coupling_to_even

DEFAULT_TERM_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured number of summands."""


def phase_mod1(x):
    """Reduce an exact rational into the fundamental interval [0, 1)."""
    x = Fraction(x)
    return x - (x.numerator // x.denominator)


class CyclotomicSum:
    """Finite multiset of phases: the exact value of a sum of roots of unity.

    Terms map a phase r in [0,1) to an integer multiplicity; zero
    multiplicities are never stored.  Equality is structural (same phases,
    same multiplicities); value comparisons across differently-built sums
    go through eval_numeric, since no canonicalization by vanishing
    root-of-unity relations is attempted.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for phase, mult in items:
            if mult == 0:
                continue
            p = phase_mod1(phase)
            m = clean.get(p, 0) + mult
            if m:
                clean[p] = m
            else:
                del clean[p]
        self._terms = clean

    @classmethod
    def _from_reduced(cls, terms):
        """Wrap a dict of distinct phases already in [0, 1) with nonzero
        multiplicities, skipping the cleaning pass of the constructor."""
        s = cls.__new__(cls)
        s._terms = terms
        return s

    def items(self):
        """Term list sorted by phase; the canonical iteration order."""
        den = math.lcm(*{p.denominator for p in self._terms})
        return tuple(sorted(
            self._terms.items(),
            key=lambda t: t[0].numerator * (den // t[0].denominator),
        ))

    @property
    def total_multiplicity(self):
        return sum(self._terms.values())

    def __eq__(self, other):
        if not isinstance(other, CyclotomicSum):
            return NotImplemented
        return self._terms == other._terms

    def __len__(self):
        return len(self._terms)

    def __repr__(self):
        inner = ", ".join(f"{p}: {m}" for p, m in self.items())
        return f"CyclotomicSum({{{inner}}})"


def conjugate(s):
    """Complex conjugation: every phase r becomes -r mod 1."""
    return CyclotomicSum((phase_mod1(-p), m) for p, m in s.items())


@dataclass(frozen=True)
class ComplexValue:
    """A complex number evaluated at a fixed binary precision."""

    re: object
    im: object
    precision: int

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def abs(self):
        with mp.workprec(self.precision):
            return +mp.hypot(self.re, self.im)


_ROOT_BITS = 128  # largest lcm of denominators read from one root of unity


def eval_numeric(s, precision=128):
    """Evaluate a CyclotomicSum as a complex number at `precision` bits.

    With every phase written as k/L over the lcm L of the denominators,
    the sum is read out of one root of unity z = e^{2 pi i/L}: one expjpi
    call gives z as fixed-point integers scaled by 2^W, repeated squaring
    gives z^(2^j), and a walk over the residues k in increasing order steps
    from one power to the next by multiplying in the table entries for the
    bits of the gap.  The multiplicity-weighted powers are summed exactly in
    Python integers and rounded once to `precision` bits.  The cost is
    O(log L) squarings plus popcount(gap) products per distinct phase, never
    a walk over all L powers.  Every sum the engine builds has one modulus
    and takes one root; phases whose denominators have an lcm of more than
    128 bits are split into groups under that size (a larger single
    denominator forms its own group), one root each, so unrelated
    denominators cannot inflate L.

    Error: z is rounded to within 2^-W, and each product is truncated to
    within 2^(1/2-W).  A power z^k is a product tree with k leaves z and
    k - 1 products, so it lies within about 2.5 k 2^-W < 2.5 L 2^-W of
    e^{2 pi i k/L}.  With W = precision + 2 bitlen(L) + bitlen(phases) +
    bitlen(sum |mult|) + 8 for each group, the integer sum is therefore
    within 2^-(precision+6) of the exact value in each component, and the
    final rounding adds at most half an ulp: each component is within
    1.02 * 2^-precision * max(1, |value|).  A sum with L = 1, 2 or 4, such
    as the empty sum or {0: 1}, comes out exact.
    """
    terms = s._terms
    slack = (precision + len(terms).bit_length()
             + sum(abs(m) for m in terms.values()).bit_length() + 8)
    roots = []
    group = {}
    for d in sorted({p.denominator for p in terms}):
        if roots and math.lcm(roots[-1], d).bit_length() <= _ROOT_BITS:
            roots[-1] = math.lcm(roots[-1], d)
        else:
            roots.append(d)
        group[d] = len(roots) - 1
    residues = [[] for _ in roots]
    for p, m in terms.items():
        i = group[p.denominator]
        residues[i].append((p.numerator * (roots[i] // p.denominator), m))
    re = im = width = 0
    for den, res in zip(roots, residues):
        w = slack + 2 * den.bit_length()
        part_re, part_im = _root_walk(den, sorted(res), w)
        if w > width:
            re, im, width = re << (w - width), im << (w - width), w
        re += part_re << (width - w)
        im += part_im << (width - w)
    with mp.workprec(precision):
        return ComplexValue(mp.mpf((re, -width)), mp.mpf((im, -width)), precision)


def _root_walk(den, residues, width):
    """Sum of mult * e^{2 pi i k/den} over (k, mult) in increasing k, as
    integers scaled by 2^width, from one root of unity and its powers."""
    if den > 1:
        with mp.workprec(width + 10):
            z = mp.expjpi(mp.mpf(2) / den)
            z = (int(mp.nint(mp.ldexp(z.real, width))),
                 int(mp.nint(mp.ldexp(z.imag, width))))
        table = [z]
        while len(table) < (den - 1).bit_length():
            table.append(_fixed_mul(table[-1], table[-1], width))
    re = im = 0
    k0, power = 0, (1 << width, 0)
    for k, mult in residues:
        gap, k0 = k - k0, k
        for j in range(gap.bit_length()):
            if gap >> j & 1:
                power = _fixed_mul(power, table[j], width)
        re += mult * power[0]
        im += mult * power[1]
    return re, im


def _fixed_mul(x, y, width):
    """Product of two complex numbers held as integers scaled by 2^width."""
    (a, b), (c, d) = x, y
    return (a * c - b * d) >> width, (a * d + b * c) >> width


def _quadratic_value(coeff, q, u, block):
    """t(u) (coeff x q) u for u split into len(coeff) blocks of size `block`."""
    n = len(coeff)
    total = Fraction(0)
    for i in range(n):
        ui = u[i * block:(i + 1) * block]
        for j in range(n):
            if coeff[i][j] == 0:
                continue
            uj = u[j * block:(j + 1) * block]
            total += coeff[i][j] * sum(
                ui[a] * q[a][b] * uj[b] for a in range(block) for b in range(block)
            )
    return total


def quadratic_phase(k, form, u):
    """Phase of one partition-function term, with no range validation.

    Returns -(1/2) t(u) (k x Q) u mod 1.  Exposed separately so that
    representative-shift identities (u -> u + p e) can be checked, which
    exponent_phase itself rejects by contract.
    """
    return phase_mod1(-_quadratic_value(k, form.q, u, form.rank) / 2)


def exponent_phase(k, form, u):
    """Exact phase of the partition-function term at representative u.

    k must be symmetric with even diagonal; u concatenates one block of
    fundamental representatives (0 <= u_a < p_a) per U(1) factor.
    """
    n = len(k)
    if not is_symmetric(k) or any(k[i][i] % 2 for i in range(n)):
        raise ValueError("coupling matrix must be symmetric with even diagonal")
    t = form.rank
    if len(u) != n * t:
        raise ValueError("representative vector has the wrong length")
    for idx, x in enumerate(u):
        p = form.factors[idx % t]
        if not 0 <= x < p:
            raise ValueError(f"representative {x} out of range [0, {p})")
    return quadratic_phase(k, form, u)


def _accumulate_counts(coeff, gram, diag, radix, modulus, ncopies):
    """Histogram of t(x)(coeff x G)x mod modulus over all index tuples.

    gram[a][b] is the pairing of representatives a and b, already reduced
    mod modulus; diag[a] = gram[a][a].  coeff is symmetric ncopies x
    ncopies.  Returns a dict residue -> count.
    """
    counts = {}
    rng = range(radix)
    if ncopies == 1:
        w = coeff[0][0] % modulus
        for a in rng:
            key = (w * diag[a]) % modulus
            counts[key] = counts.get(key, 0) + 1
    elif ncopies == 2:
        w00 = coeff[0][0] % modulus
        w01 = (2 * coeff[0][1]) % modulus
        w11 = coeff[1][1] % modulus
        d1 = [(w11 * diag[b]) % modulus for b in rng]
        for a in rng:
            ga = gram[a]
            base = w00 * diag[a]
            for b in rng:
                key = (base + w01 * ga[b] + d1[b]) % modulus
                counts[key] = counts.get(key, 0) + 1
    else:
        for combo in itertools.product(rng, repeat=ncopies):
            tot = 0
            for i in range(ncopies):
                gi = gram[combo[i]]
                tot += coeff[i][i] * gi[combo[i]]
                for j in range(i + 1, ncopies):
                    tot += 2 * coeff[i][j] * gi[combo[j]]
            key = tot % modulus
            counts[key] = counts.get(key, 0) + 1
    return counts


def _counts_to_sum(counts, modulus, flip):
    """The sum of e^{2 pi i key/modulus} (key negated when flip) with the
    given counts; keys are distinct residues in [0, modulus), counts nonzero."""
    if flip:
        counts = {(modulus - k) % modulus: v for k, v in counts.items()}
    return CyclotomicSum._from_reduced(
        {Fraction(k, modulus): v for k, v in counts.items()}
    )


def _check_budget(radix, ncopies, budget):
    budget = DEFAULT_TERM_BUDGET if budget is None else budget
    terms = radix**ncopies
    if terms > budget:
        raise BudgetExceededError(
            f"{terms} summands exceed the term budget of {budget}"
        )


@dataclass(frozen=True)
class _QuadraticModule:
    """Finite abelian group on cyclic generators, with an integer pairing.

    Generator a has order factors[a]; an element is a coordinate vector u
    with 0 <= u_a < factors[a].  Two elements pair to t(u) gram v read
    modulo `modulus`.
    """

    factors: tuple
    gram: tuple
    modulus: int

    @property
    def order(self):
        return math.prod(self.factors)


def _key_is_well_defined(coeff, module):
    """Whether t(u)(coeff x gram)u mod modulus is a function on the group.

    Moving u_i by factors[a] along generator a changes the key by
    2 sum_j coeff_ij factors[a] (gram u_j)_a + coeff_ii factors[a]^2 gram_aa,
    so the key is well defined exactly when both kinds of term vanish mod
    modulus for every i, j, a (with gram symmetric mod modulus).  The first
    kind vanishes whenever the pairing is well defined on the group; the
    second whenever coeff has an even diagonal, or the module's own
    quadratic function is well defined, as it is for an even modulus matrix.
    """
    m = module.modulus
    f, g = module.factors, module.gram
    t = len(f)
    c_all = math.gcd(*(x for row in coeff for x in row))
    c_diag = math.gcd(*(coeff[i][i] for i in range(len(coeff))))
    return all(
        (g[a][b] - g[b][a]) % m == 0 and 2 * c_all * f[a] * g[a][b] % m == 0
        for a in range(t) for b in range(t)
    ) and all(c_diag * f[a] ** 2 * g[a][a] % m == 0 for a in range(t))


def _coprime_parts(x, ncopies, budget):
    """Pairwise coprime factors of x: its prime powers, by trial division.

    Division stops once p**ncopies exceeds the budget: what is left then
    has only prime factors >= p, so any block built from it fails the
    budget check, and it is returned as one part.
    """
    parts = []
    p = 2
    while p * p <= x and p**ncopies <= budget:
        if x % p == 0:
            q = 1
            while x % p == 0:
                x //= p
                q *= p
            parts.append(q)
        p += 1 if p == 2 else 2
    if x > 1:
        parts.append(x)
    return parts


def _primary_blocks(module, ncopies, budget):
    """Orthogonal blocks of the module, one per coprime part of its exponent.

    A generator g of order f = d * e, with d the part's share of f, gives
    the block generator e * g of order d; its Gram entries scale by e.
    """
    parts = _coprime_parts(math.lcm(*module.factors), ncopies, budget)
    if len(parts) == 1:
        return [module]
    blocks = []
    for part in parts:
        gens = [(a, f // math.gcd(f, part)) for a, f in enumerate(module.factors)
                if math.gcd(f, part) > 1]
        blocks.append(_QuadraticModule(
            tuple(module.factors[a] // e for a, e in gens),
            tuple(tuple(ea * eb * module.gram[a][b] % module.modulus
                        for b, eb in gens) for a, ea in gens),
            module.modulus,
        ))
    return blocks


def _block_counts(coeff, module):
    """Histogram key -> count of t(u)(coeff x gram)u mod modulus over the
    whole box of the module to the power len(coeff)."""
    factors, g, modulus = module.factors, module.gram, module.modulus
    radix = module.order
    n = len(coeff)
    reps = list(itertools.product(*(range(p) for p in factors)))
    t = len(factors)

    def pair(x, y):
        return sum(
            x[a] * g[a][b] * y[b] for a in range(t) for b in range(t)
        ) % modulus

    diag = [pair(x, x) for x in reps]
    gram = None
    if n >= 2:
        gram = [[0] * radix for _ in range(radix)]
        for a in range(radix):
            gram[a][a] = diag[a]
            for b in range(a + 1, radix):
                v = pair(reps[a], reps[b])
                gram[a][b] = v
                gram[b][a] = v
    return _accumulate_counts(coeff, gram, diag, radix, modulus, n)


def _key_bound(coeff, block):
    """Upper bound on the distinct keys of a block's histogram.

    Every key is an integer combination of products coeff_ij * gram_ab, so
    it lies in the subgroup of Z/modulus generated by their gcd; and there
    are no more keys than summands.
    """
    m = block.modulus
    c = math.gcd(*(x for row in coeff for x in row))
    g = math.gcd(*(x for row in block.gram for x in row))
    return min(block.order ** len(coeff), m // math.gcd(m, c * g))


def _check_convolution(bounds, modulus, budget):
    """Hold every convolution step of the block histograms to the budget.

    Step k pairs each key of the histogram so far (at most the product of
    the earlier blocks' key bounds, and at most modulus) with each key of
    block k.  The product of the key bounds up to block k is at most that
    block prefix's share of the |T|^n summands, so a sum whose summands fit
    the budget always passes.
    """
    support = bounds[0]
    for h in bounds[1:]:
        work = min(support, modulus) * h
        if work > budget:
            raise BudgetExceededError(
                f"convolving the block histograms takes up to {work} pair "
                f"updates, over the term budget of {budget}"
            )
        support *= h


def _convolve(a, b, modulus):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = (ka + kb) % modulus
            out[key] = out.get(key, 0) + va * vb
    return out


def _gauss_sum(coeff, module, sign, budget):
    """Sum of e^{2 pi i sign key / modulus}, key = t(u)(coeff x gram)u,
    over u in the box of the module to the power n = len(coeff).

    When the key is a function on the group, the group is the orthogonal
    sum of its p-primary blocks (Wall), so the key of u is the sum of the
    keys of its block components and the histogram over the whole box is
    the cyclic convolution of the block histograms: sum over p of |T_p|^n
    summands instead of |T|^n, plus the convolution steps.  Otherwise the
    value depends on the fixed representatives and the whole box is
    enumerated as one block.  Every block and every convolution step is
    held to the budget before any block is enumerated.
    """
    n = len(coeff)
    budget = DEFAULT_TERM_BUDGET if budget is None else budget
    if n == 0 or module.order == 1:
        _check_budget(1, 1, budget)
        return CyclotomicSum({Fraction(0): 1})
    if _key_is_well_defined(coeff, module):
        blocks = _primary_blocks(module, n, budget)
    else:
        blocks = [module]
    for block in blocks:
        _check_budget(block.order, n, budget)
    _check_convolution([_key_bound(coeff, b) for b in blocks], module.modulus, budget)
    counts = _block_counts(coeff, blocks[0])
    for block in blocks[1:]:
        counts = _convolve(counts, _block_counts(coeff, block), module.modulus)
    return _counts_to_sum(counts, module.modulus, flip=sign < 0)


def partition_function(c, manifold, budget=None):
    """Partition function of the U(1)^n theory with coupling matrix c.

    Sums e^{- pi i t(u) (K x Q) u} over u in the fundamental box of the
    torsion group to the n-th Cartesian power, K = c + t(c), Q the cached
    linking form.  The result is exact, deterministic and independent of
    enumeration order.  The free homology sector contributes no finite
    factor: it is absorbed into the (formal) normalization, so a manifold
    with b1 > 0 simply sums over the torsion part.

    K is even, so each summand depends only on the group element and the
    sum splits over the p-primary parts T_p of the torsion group: the
    budget bounds |T_p|^n for every prime p, and each step of convolving
    their phase histograms, not |T|^n.
    """
    # exponent carries a global minus sign
    return _gauss_sum(coupling_to_even(c), _form_module(manifold.form), -1, budget)


def _form_module(form):
    """The quadratic module of a linking form: Gram numerators over twice
    their common denominator, so that a key over the modulus is half the
    form's value."""
    denom = math.lcm(*(x.denominator for row in form.q for x in row))
    return _QuadraticModule(
        form.factors,
        tuple(tuple(int(x * denom) for x in row) for row in form.q),
        2 * denom,
    )


def _nonsingular_torsion_module(k0):
    rank, form, gens = _torsion_module(k0)
    if rank < len(k0):
        raise ValueError("modulus matrix must be nonsingular")
    return form, gens


def coset_representatives(a):
    """Fixed representatives of Z^s / a Z^s for a nonsingular symmetric a.

    The quotient is the group of the linking form of a.  With d = u a v the
    Smith form, generator i of linking_form_with_generators(a) is the class
    of unit vector i of the box prod [0, d_i), so its combinations over the
    box enumerate each class exactly once.  Returns (reps, all s invariant
    factors); the representative order is the mixed-radix order of the box.
    """
    s = len(a)
    form, gens = _nonsingular_torsion_module(a)
    reps = [
        tuple(sum(g[i] * c for g, c in zip(gens, box)) for i in range(s))
        for box in itertools.product(*(range(d) for d in form.factors))
    ]
    return reps, (1,) * (s - form.rank) + form.factors


def gauss_sum_over_lattice(l, k0, sign, budget=None):
    """Sum of e^{sign * pi i t(x) (l x inverse(k0)) x} over (Z^s/k0 Z^s)^m.

    l is any symmetric m x m integer matrix; k0 is a nonsingular symmetric
    s x s integer matrix defining the quotient.  The module summed over is
    the linking form of k0, as in partition_function, and the representative
    set is the fixed one from coset_representatives, used consistently for
    both sides of each term.  When l or k0 has an even diagonal every term is
    independent of the representative choice, and the sum splits over the
    p-primary parts of the quotient, with the budget bounding each part's
    summands and each step of convolving their histograms.  For an odd l
    and an odd k0 the sum is still well defined as a function of the fixed
    representatives, which is the convention the reciprocity identity is
    stated with; unless no term depends on them, the whole quotient is
    enumerated as one block.
    """
    if not is_symmetric(l):
        raise ValueError("summand matrix must be symmetric")
    if not is_symmetric(k0):
        raise ValueError("modulus matrix must be symmetric")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    form, _ = _nonsingular_torsion_module(k0)
    return _gauss_sum(l, _form_module(form), sign, budget)
