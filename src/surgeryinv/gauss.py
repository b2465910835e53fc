"""Exact Gauss sums and the abelian Chern-Simons partition function.

A phase k/M in [0,1), k an integer key over the sum's modulus M, stands
for e^{2 pi i k/M}; a Gauss sum is a finite multiset of phases with
integer multiplicities (CyclotomicSum).  The engine builds every sum
exactly, and its value too: every sum it builds is sqrt(N) e^{2 pi i j/8},
N rational (_Exact), the product of closed forms over the Jordan summands
of its p-primary blocks (Wall, Kawauchi-Kojima, Deloup), and carries that
value.  A CyclotomicSum is a result the engine returns, not an input
format, and eval_numeric rounds the value it carries.  The partition and
reciprocity commands print each component of a value correctly rounded
at the requested precision, from an integer square root, and read no sum
out numerically.  mpmath is imported when a value is first rounded to
mpmath numbers (_Exact.components), not with this module.

The partition function of a U(1)^n theory with integer coupling matrix C
on a manifold with torsion group T and linking form Q is the sum over
T^n, in fundamental representatives u_i in [0, p_i), of
e^{- pi i t(u) (K x Q) u} with K = C + t(C); the even diagonal of K is
exactly what makes each term independent of the representative choice.

Both that sum and the lattice sums of the reciprocity identity go through
one engine, which sums e^{pi i t(u)(S x Q)u} for a coefficient matrix S
that carries the sign of the exponent: the partition function's S is -K,
and -S gives the conjugate sum.  It takes the linking form of the
manifold or of the lattice sum's modulus matrix as homology builds it:
cyclic generators with their orders and integer Gram numerators over the
group's exponent e.  The key t(u)(S x gram)u is read over 2e, the phase
key/2e being half of t(u)(S x Q)u, and no rational is formed.  A sum is
defined only when each term depends only on the group element; a sum
whose terms depend on the fixed representatives (possible only for an odd
summand matrix over an odd modulus matrix) is refused with ValueError.
The group then splits orthogonally into p-primary blocks and the phase
histogram over T^n is the cyclic convolution of the block histograms,
whose steps cost at most the product of the key counts of the blocks so
far times the next block's.  No block is enumerated.  A block's key is a
quadratic form on T_p^n; symmetric elimination over Z/p^m (p^m the p-part
of the modulus) splits it into Jordan summands of rank 1, and for p = 2
also of rank 2 (Wall; Conway-Sloane, SPLAG ch. 15).  Each rank-1 summand
is enumerated, at most p^e values for a block of exponent p^e (half of
them at odd p, where y and -y give one key); each rank-2 summand has a
closed form with at most 2^e keys.  Scaling u by a unit multiplies every
key by a unit square, so every histogram is a function of its key's class
under unit squares (2m + 1 classes for odd p, about 4m for p = 2), and
each convolution of summands is evaluated at one representative per class
and then expanded over Z/p^m.  A block thus costs about |T_p| work rather
than |T_p|^n.  The term budget bounds |T_p|^n, the number of summands
each block stands for, and every convolution step of the blocks.  The
closed form of a block reads the same Jordan summands, each to a Gauss
sum of its own: one elimination per block serves both readings, so a sum
comes with its histogram and its value from one engine pass (_gauss_sum).
The value alone (_gauss_value, for the reciprocity identity) takes the
same preamble and the same elimination and builds no histogram, so it
refuses what the histogram refuses.
"""

import itertools
import math
from collections import Counter, namedtuple
from fractions import Fraction

from .exactmat import DEFAULT_TERM_BUDGET, BudgetExceededError, is_symmetric, mat_neg
from .homology import LinkingForm, _torsion_module
from .surgery import coupling_to_even


class CyclotomicSum:
    """Finite multiset of phases: the exact value of a sum of roots of unity.

    CyclotomicSum(counts, modulus, value) is the sum of e^{2 pi i k/modulus}
    with multiplicity counts[k], for distinct integer keys k in
    [0, modulus) with nonzero multiplicities, as the engine builds it; the
    constructor keeps counts as it is and normalizes nothing.  value is the
    sum's exact value (_Exact) when the engine knows it, else None, and
    eval_numeric rounds it.  Equality is structural (same phases, same
    multiplicities), since no canonicalization by vanishing root-of-unity
    relations is attempted.
    """

    __slots__ = ("_counts", "_modulus", "_value")

    def __init__(self, counts, modulus, value=None):
        self._counts, self._modulus, self._value = counts, modulus, value

    def items(self):
        """Term list sorted by phase; the canonical iteration order."""
        m, counts = self._modulus, self._counts
        return tuple((Fraction(k, m), counts[k]) for k in sorted(counts))

    def _reduced_items(self):
        """(numerator, denominator, multiplicity) per phase in lowest terms,
        sorted by phase, with no Fraction made."""
        m, counts, gcd = self._modulus, self._counts, math.gcd
        return [(k // g, m // g, counts[k]) for k in sorted(counts) for g in (gcd(k, m),)]

    @property
    def total_multiplicity(self):
        return sum(self._counts.values())

    def __eq__(self, other):
        if not isinstance(other, CyclotomicSum):
            return NotImplemented
        if self._modulus == other._modulus:
            return self._counts == other._counts
        return self._reduced_items() == other._reduced_items()

    def __len__(self):
        return len(self._counts)

    def __repr__(self):
        inner = ", ".join(f"{p}: {m}" for p, m in self.items())
        return f"CyclotomicSum({{{inner}}})"


def conjugate(s):
    """Complex conjugation: every phase r becomes -r mod 1, and a value the
    engine carries is conjugated with it."""
    m, value = s._modulus, s._value
    return CyclotomicSum({(m - k) % m: v for k, v in s._counts.items()}, m,
                         None if value is None else value.conjugate())


class ComplexValue(namedtuple("ComplexValue", "re im precision")):
    """A complex number evaluated at a fixed binary precision: re and im
    are mpmath numbers, precision is in bits."""

    __slots__ = ()

    def __complex__(self):
        return complex(float(self.re), float(self.im))


# the sign of cos(pi j/4) for j = 0..7; that of sin(pi j/4) is at j - 2
_SIGNS = (1, 1, 0, -1, -1, -1, 0, 1)


class _Exact(namedtuple("_Exact", "norm eighth")):
    """The complex number sqrt(norm) e^{2 pi i eighth/8}: norm = |z|^2 a
    non-negative Fraction, eighth an int in [0, 8), 0 when norm is 0.

    Every sum the engine builds is one (_jordan_value), and so are both
    sides of the reciprocity identity, so equal values compare ==.
    """

    __slots__ = ()

    def __mul__(self, other):
        norm = self.norm * other.norm
        return _Exact(norm, (self.eighth + other.eighth) % 8 if norm else 0)

    def conjugate(self):
        return _Exact(self.norm, -self.eighth % 8)

    def rounded(self, precision):
        """(re, im), each component correctly rounded, to nearest with ties
        to even, at `precision` bits, as a pair (man, exp) standing for
        man 2^exp, man signed; an exact 0 has man 0.

        A component is 0, or +-sqrt(norm), or +-sqrt(norm/2) when eighth is
        odd.  A precision below 1 bit raises ValueError.  No mpmath number
        is made.
        """
        if precision < 1:
            raise ValueError(f"precision must be at least 1 bit, not {precision}")
        size = self.norm / 2 if self.eighth % 2 else self.norm
        man, exp = _rounded_sqrt(size, precision) if size else (0, 0)
        return tuple((sign * man, exp) for sign in (_SIGNS[self.eighth], _SIGNS[self.eighth - 2]))

    def components(self, precision):
        """The ComplexValue of rounded(precision), as mpmath numbers."""
        from mpmath import mp

        re, im = (mp.mpf(x, prec=precision) for x in self.rounded(precision))
        return ComplexValue(re, im, precision)


_ONE = _Exact(Fraction(1), 0)
_ZERO = _Exact(Fraction(0), 0)


def _rounded_sqrt(x, precision):
    """(man, exp) with man 2^exp the square root of the Fraction x > 0
    rounded to `precision` bits, to nearest with ties to even.

    With exp chosen so that t = floor(sqrt(x) 2^-exp) = isqrt(floor(x
    4^-exp)) has at least precision + 2 bits, the bits of t below the top
    precision, and whether t^2 = x 4^-exp exactly, decide the rounding.
    """
    a, b = x.numerator, x.denominator
    exp = (a.bit_length() - b.bit_length()) // 2 - precision - 2
    num, den = (a << -2 * exp, b) if exp < 0 else (a, b << 2 * exp)
    t = math.isqrt(num // den)
    drop = t.bit_length() - precision
    man, rest, half = t >> drop, t & ((1 << drop) - 1), 1 << (drop - 1)
    if rest > half or rest == half and (t * t * den != num or man & 1):
        man += 1
    return man, exp + drop


def eval_numeric(s, precision=128):
    """The value a sum carries, as a complex number at `precision` bits:
    each component correctly rounded (_Exact.components).  A sum that
    carries no value, or a precision below 1 bit, raises ValueError."""
    if s._value is None:
        raise ValueError("the sum carries no value to read out")
    return s._value.components(precision)


def _check_budget(radix, ncopies, budget):
    terms = radix**ncopies
    if terms > budget:
        raise BudgetExceededError(
            f"{terms} summands exceed the term budget of {budget}"
        )


def _key_is_well_defined(coeff, form, modulus):
    """Whether t(u)(coeff x gram)u mod modulus is a function on the group
    of the form, modulus being the engine's key modulus.

    Moving u_i by factors[a] along generator a changes the key by
    2 sum_j coeff_ij factors[a] (gram u_j)_a + coeff_ii factors[a]^2 gram_aa,
    so the key is well defined exactly when both kinds of term vanish mod
    modulus for every i, j, a (with gram symmetric mod modulus).  The first
    kind vanishes whenever the pairing is well defined on the group; the
    second whenever coeff has an even diagonal, or the form's own
    quadratic function is well defined, as it is for an even modulus matrix.
    """
    m, f, g = modulus, form.factors, form.gram
    t = len(f)
    c_all = math.gcd(*(x for row in coeff for x in row))
    c_diag = math.gcd(*(coeff[i][i] for i in range(len(coeff))))
    return all(
        (g[a][b] - g[b][a]) % m == 0 and 2 * c_all * f[a] * g[a][b] % m == 0
        for a in range(t) for b in range(t)
    ) and all(c_diag * f[a] ** 2 * g[a][a] % m == 0 for a in range(t))


def _coprime_parts(x, ncopies, budget):
    """Pairwise coprime factors of x by trial division, as pairs (p, q):
    q = p^k is the exact power of the prime p dividing x.

    Division stops once what is left is a prime, one that _certified_prime
    certifies or one below p * p, and that prime x is the last pair (x, x).
    A prime left over after the small factors, below 3.3 * 10^24, is thus
    returned at once.  Division also stops once p**ncopies exceeds the
    budget: what is left then has only prime factors >= p, so any block
    built from it fails the budget check, and it is the last pair (None, x).
    """
    parts = []
    p = 2
    done = _certified_prime(x)
    while not done and p * p <= x and p**ncopies <= budget:
        if x % p == 0:
            q = 1
            while x % p == 0:
                x //= p
                q *= p
            parts.append((p, q))
            done = _certified_prime(x)
        p += 1 if p == 2 else 2
    if x > 1:
        parts.append((x if done or p * p > x else None, x))
    return parts


def _primary_blocks(form, modulus, ncopies, budget):
    """Orthogonal blocks of the form as pairs (p, block), one per pair
    (p, q) of _coprime_parts of its exponent: q is the block's exponent and
    p its prime, None for a leftover that the budget check refuses.

    A generator g of order f = d * e, with d = gcd(f, q), gives the block
    generator e * g of order d; its Gram entries scale by e and are reduced
    mod the key modulus.  Each block is a LinkingForm over the form's own
    modulus.
    """
    parts = _coprime_parts(math.lcm(*form.factors), ncopies, budget)
    if len(parts) == 1:
        return [(parts[0][0], form)]
    blocks = []
    for p, q in parts:
        gens = [(a, f // math.gcd(f, q)) for a, f in enumerate(form.factors)
                if math.gcd(f, q) > 1]
        blocks.append((p, LinkingForm(
            tuple(form.factors[a] // e for a, e in gens),
            tuple(tuple(ea * eb * form.gram[a][b] % modulus
                        for b, eb in gens) for a, ea in gens),
            form.modulus,
        )))
    return blocks


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Sorenson-Webster: every composite below this fails Miller-Rabin to one
# of the bases above
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _certified_prime(x):
    """Whether x is prime, by Miller-Rabin on the prime bases up to 41.

    The answer is exact below _MR_LIMIT; above it nothing is certified and
    the answer is False.
    """
    if x < 2 or x >= _MR_LIMIT:
        return False
    if x in _MR_BASES:
        return True
    if any(x % b == 0 for b in _MR_BASES):
        return False
    d, s = x - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        y = pow(b, d, x)
        if y in (1, x - 1):
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def _valuation(x, p, cap):
    """Exponent of p in the integer x, at most cap (so 0 has valuation cap)."""
    v = 0
    while v < cap and x % p == 0:
        x, v = x // p, v + 1
    return v


def _jordan_summands(s, p, m):
    """Split the form t(x) s x mod p^m into orthogonal Jordan summands.

    s is a symmetric integer matrix, reduced mod p^m and overwritten.
    Symmetric elimination takes a pivot of least valuation: a diagonal
    entry gives a rank-1 summand c x^2; for odd p an off-diagonal pivot
    e_a, e_b is first turned into the diagonal one of e_a + e_b; for p = 2
    it gives a rank-2 summand c00 x^2 + 2 c01 x y + c11 y^2 with c01 of
    valuation v and c00, c11 of higher valuation.  The eliminating change
    of basis is unimodular over Z, so it permutes (Z/p^e)^N for every e.
    Returns (v, entries of the pivot block) per summand; what remains when
    every entry is 0 mod p^m adds nothing to the key and is left out.

    Entries are ranked by gcd(entry, p^m) = p^min(valuation, m), which
    orders them as their valuations do; the first least entry is the
    pivot, the diagonal winning a tie, so the off-diagonal entries are
    searched only when no diagonal entry is a unit.  Each row takes one
    factor per pivot, and a row whose factors are all 0 is left as it is.
    """
    big = p**m
    gcd = math.gcd
    live = list(range(len(s)))
    out = []
    while live:
        ranks = [gcd(s[a][a], big) for a in live]
        g = min(ranks)
        pivots = (live[ranks.index(g)],)
        if g > 1:
            pairs = [(a, b) for i, a in enumerate(live) for b in live[i + 1:]]
            ranks = [gcd(s[a][b], big) for a, b in pairs]
            if min(ranks, default=g) < g:
                g = min(ranks)
                pivots = pairs[ranks.index(g)]
        if g == big:
            break
        if len(pivots) == 2 and p > 2:
            a, b = pivots
            s[a][a] = (s[a][a] + 2 * s[a][b] + s[b][b]) % big
            for c in live:
                if c != a:
                    s[a][c] = s[c][a] = (s[a][c] + s[b][c]) % big
            pivots = (a,)
        live = [c for c in live if c not in pivots]
        if len(pivots) == 1:
            (a,) = pivots
            row_a = s[a]
            inv = pow(row_a[a] // g, -1, big)
            for c in live:
                f = s[c][a] // g * inv % big
                if f:
                    row = s[c]
                    for d in live:
                        row[d] = (row[d] - f * row_a[d]) % big
        else:
            a, b = pivots
            row_a, row_b = s[a], s[b]
            b00, b01, b11 = row_a[a] // g, row_a[b] // g, row_b[b] // g
            inv = pow(b00 * b11 - b01 * b01, -1, big)
            for c in live:
                x0, x1 = s[c][a] // g, s[c][b] // g
                f0 = (x0 * b11 - x1 * b01) * inv % big
                f1 = (x1 * b00 - x0 * b01) * inv % big
                if f0 or f1:
                    row = s[c]
                    for d in live:
                        row[d] = (row[d] - (f0 * row_a[d] + f1 * row_b[d])) % big
        out.append((_valuation(g, p, m), tuple(s[a][b] for a in pivots for b in pivots)))
    return out


def _summand_counts(v, entries, p, m, e):
    """Histogram over Z/p^m of one Jordan summand of valuation v on its
    box (Z/p^h)^rank, h = min(m - v, e), and that h.

    The summand is periodic mod p^(m - v) and, being a summand of a key on
    a group of exponent p^e, mod p^e, so its box of side p^h covers
    (Z/p^e)^rank evenly.  A rank-1 summand c y^2 is enumerated.  At odd p,
    periodicity mod p^e puts every entry of the key's matrix in p^(m-e) Z,
    so h = m - v, c p^h = 0 mod p^m and y and p^h - y give one key: y runs
    over [1, (p^h - 1)/2] and each count is doubled.  At p = 2, y runs
    over all p^h values.  A rank-2 summand 2^v (a x^2 + 2 b x y + c y^2),
    b odd, a and c even, is over the 2-adic integers 2^(v+1) x y when
    a c - b^2 = 7 mod 8 and 2^(v+1) (x^2 + x y + y^2) when it is 3 mod 8
    (Conway-Sloane, SPLAG ch. 15), and its key 2^(v+1) w depends on w mod
    2^k, k = m - v - 1 <= h.
    Over (Z/2^k)^2, x y takes w of valuation t < k (t + 1) 2^(k-1) times,
    and 0 k 2^(k-1) + 2^k times; x^2 + x y + y^2, whose norm map onto the
    2-adic units is onto, takes w of even valuation 3 2^(k-1) times, w of
    odd valuation never, and 0 4^floor(k/2) times.  That is 2^k keys.
    """
    big = p**m
    h = min(m - v, e)
    if len(entries) == 1:
        c = entries[0]
        if p == 2:
            return Counter(c * y * y % big for y in range(1 << h)), h
        half = Counter(c * y * y % big for y in range(1, (p**h + 1) // 2))
        counts = {k: 2 * n for k, n in half.items()}
        counts[0] = counts.get(0, 0) + 1
        return counts, h
    a, b, _, c = (x >> v for x in entries)
    k = m - v - 1
    lift = 4 ** (h - k)
    hyperbolic = (a * c - b * b) % 8 == 7
    out = {0: lift * ((k << k >> 1) + (1 << k) if hyperbolic else 4 ** (k // 2))}
    for w in range(1, 1 << k):
        t = _valuation(w, 2, k)
        if hyperbolic:
            out[w << (v + 1)] = lift * ((t + 1) << k >> 1)
        elif t % 2 == 0:
            out[w << (v + 1)] = lift * (3 << k >> 1)
    return out, h


def _square_classes(p, m):
    """Classes of Z/p^m under multiplication by the squares of units.

    Returns the class index of every residue and one representative per
    class.  0 is a class; p^v w with w a unit falls in one of 2 classes for
    odd p (w a square mod p or not), and for p = 2 in one of up to 4 (w mod
    8, as far as p^(m-v) can tell): 2m + 1 classes for odd p, about 4m for
    p = 2.
    """
    label = [0] * p**m
    reps = [0]
    if p > 2:
        square = bytearray(p)
        for y in range(1, p):
            square[y * y % p] = 1
        units = (1, square.index(0, 1))
        sub = [0] + [1 - square[w] for w in range(1, p)]
    for v in range(m):
        q, r = p**v, p ** (m - v)
        if p == 2:
            period = min(8, r)
            units = (1, 3, 5, 7)[:period // 2]
            sub = [(w % 8) >> 1 for w in range(period)]
        else:
            period = p
        base = len(reps)
        reps.extend(q * w for w in units)
        # multiples of p q are set again at the next v, and 0 at the end
        label[::q] = [base + i for i in sub] * (r // period)
    label[0] = 0
    return label, reps


def _block_summands(coeff, block, p, modulus):
    """The key of a p-primary block mod p^m, p^m the p-part of the key
    modulus, split into Jordan summands: (m, e, box, summands), with p^e
    the block's exponent, p^box the number of elements of its box to the
    power n = len(coeff), and the summands of _jordan_summands.

    The key is a quadratic form in the N = n * len(factors) coordinates,
    periodic mod p^e in each; the rest of the modulus divides every key.
    The histogram (_jordan_counts) and the closed form (_jordan_value) of
    the block both read this one split.
    """
    g = block.gram
    m = _valuation(modulus, p, modulus.bit_length())
    big = p**m
    exps = [_valuation(f, p, f.bit_length()) for f in block.factors]
    t = len(exps)
    form = [[coeff[i][j] * g[a][b] % big for j in range(len(coeff)) for b in range(t)]
            for i in range(len(coeff)) for a in range(t)]
    return m, max(exps), len(coeff) * sum(exps), _jordan_summands(form, p, m)


def _jordan_counts(split, p, modulus):
    """Histogram of the key of a p-primary block, over the key modulus,
    from the block's split (_block_summands), p the prime that
    _primary_blocks paired it with, without enumerating the block.

    Summed over the uniform box (Z/p^e)^N, which covers the block's box
    p^(N e - box) times, the key splits into Jordan summands whose
    histograms (_summand_counts) convolve.  Scaling u by a unit lambda
    multiplies every key by lambda^2, so each histogram is a function of
    the class of its key under unit squares (_square_classes), and so is
    each convolution: it is evaluated at one representative per class,
    O(classes x summand keys) products, and expanded over Z/p^m.  The
    result goes back over the modulus by the Chinese remainder theorem,
    with no zero count stored.
    """
    m, e, shift, summands = split  # shift: log_p of the block's box over the summands' boxes
    big = p**m
    parts = []
    for v, entries in summands:
        counts, h = _summand_counts(v, entries, p, m, e)
        shift -= h if len(entries) == 1 else 2 * h
        parts.append(counts)
    parts.sort(key=len, reverse=True)
    if len(parts) <= 1:
        total = parts[0] if parts else {0: 1}
    else:
        label, reps = _square_classes(p, m)
        hist = [0] * big
        for k, c in parts[0].items():
            hist[k] = c
        for counts in parts[1:]:
            at = [sum(c * hist[(r - y) % big] for y, c in counts.items()) for r in reps]
            hist = [at[i] for i in label]
        total = {k: c for k, c in enumerate(hist) if c}
    rest = modulus // big
    lift = rest * pow(rest, -1, big)  # 1 mod p^m, 0 mod the rest
    if shift >= 0:
        scale = p**shift
        return {k * lift % modulus: c * scale for k, c in total.items()}
    scale = p**-shift
    return {k * lift % modulus: c // scale for k, c in total.items()}


def _jordan_value(split, p, modulus):
    """The sum of e^{2 pi i key / modulus} over a p-primary block, as an
    _Exact, from the Jordan summands of its key (_block_summands) in
    closed form: no histogram and no enumeration.

    The block's box holds p^box elements and the key is an orthogonal sum
    of its summands, so the sum is that count times the mean of each
    summand's term over its period (Wall; Kawauchi-Kojima; Deloup, Trans.
    AMS 351 (1999)).  The CRT unit w = (modulus / p^m)^-1 mod p^m turns the
    key k into the phase w k / p^m.  A rank-1 summand p^v c x^2 of level
    L = m - v has the mean G(a; p^L) / p^L, a = w c, of the quadratic
    Gauss sum G(a; p^L) over x mod p^L (Berndt-Evans-Williams, ch. 1):
      odd p: p^(L/2) for L even, and p^((L-1)/2) (a/p) eps sqrt(p) for L
        odd, eps = 1 for p = 1 mod 4 and i for p = 3 mod 4;
      p = 2: 0 for L = 1, and (1 + i^a) 2^(L/2) (2/a)^L for L >= 2.
    A rank-2 summand at p = 2 (_summand_counts) is 2^(v+1) x y or
    2^(v+1) (x^2 + x y + y^2) with its phase depending on (x, y) mod 2^k,
    k = L - 1; its sum over (Z/2^k)^2 is 2^k or (-2)^k, whatever the unit,
    so its mean is 2^-k or (-2)^-k.
    """
    m, _, box, summands = split
    big = p**m
    unit = pow(modulus // big, -1, big)
    twice = 2 * box  # log_p of the squared modulus
    eighth = 0
    for v, entries in summands:
        level = m - v
        if len(entries) > 1:
            a, b, _, c = (x >> v for x in entries)
            twice -= 2 * (level - 1)
            if (a * c - b * b) % 8 != 7 and (level - 1) % 2:
                eighth += 4
            continue
        a = unit * (entries[0] // p**v)
        if p > 2:
            twice -= level
            if level % 2:
                eighth += (0 if p % 4 == 1 else 2) + (0 if pow(a, (p - 1) // 2, p) == 1 else 4)
        elif level == 1:
            return _ZERO
        else:
            twice += 1 - level
            eighth += (1 if a % 4 == 1 else 7) + (4 if level % 2 and a % 8 in (3, 5) else 0)
    return _Exact(Fraction(p) ** twice, eighth % 8)


def _key_bound(coeff, block, modulus):
    """Upper bound on the distinct keys of a block's histogram.

    Every key is an integer combination of products coeff_ij * gram_ab, so
    it lies in the subgroup of Z/modulus generated by their gcd; and there
    are no more keys than summands.
    """
    c = math.gcd(*(x for row in coeff for x in row))
    g = math.gcd(*(x for row in block.gram for x in row))
    return min(block.order ** len(coeff), modulus // math.gcd(modulus, c * g))


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


def _engine_blocks(coeff, form, budget):
    """The preamble of both readings of a sum, the histogram with its value
    (_gauss_sum) and the value alone (_gauss_value): (key modulus,
    p-primary blocks), no blocks for a sum over the trivial group.

    The key must be a function on the group; a key that depends on the
    fixed representatives raises ValueError, before any budget check.  The
    budget bounds |T_p|^n, the number of summands each block stands for,
    and every convolution step of the blocks.
    """
    n = len(coeff)
    budget = DEFAULT_TERM_BUDGET if budget is None else budget
    if n == 0 or form.order == 1:
        _check_budget(1, 1, budget)
        return 1, []
    # a key over twice the form's modulus is half the form's value
    modulus = 2 * form.modulus
    if not _key_is_well_defined(coeff, form, modulus):
        raise ValueError("the summands depend on the choice of coset representatives")
    blocks = _primary_blocks(form, modulus, n, budget)
    for _, block in blocks:
        _check_budget(block.order, n, budget)
    _check_convolution([_key_bound(coeff, b, modulus) for _, b in blocks], modulus, budget)
    return modulus, blocks


def _gauss_sum(coeff, form, budget):
    """Sum of e^{2 pi i key / (2 modulus)}, key = t(u)(coeff x gram)u, over
    u in the box of the linking form to the power n = len(coeff): the sum
    of e^{pi i t(u)(coeff x Q)u}, as its phase histogram, carrying its
    exact value (_Exact).  A caller takes the sign of the exponent into
    coeff, and -coeff gives the conjugate sum.

    The group is the orthogonal sum of its p-primary blocks (Wall), so the
    key of u is the sum of the keys of its block components, the histogram
    over the whole box is the cyclic convolution of the block histograms
    (_engine_blocks splits and checks them), and the value is the product
    of the block values.  No block is enumerated: each block is split into
    the Jordan summands of its key once (_block_summands), and both its
    histogram (_jordan_counts) and its value (_jordan_value) are read from
    that split, at a cost of about |T_p| per block rather than |T_p|^n:
    the elimination on an N x N matrix, N = n times the block's rank; p^h
    values for each rank-1 summand of level h <= e, p^e the block's
    exponent (half of them at odd p); one product per summand key and
    class of Z/p^m under unit squares (2m + 1 classes for odd p, about 4m
    for p = 2) for each convolution of summands; and p^m for each
    expansion over Z/p^m, p^m the p-part of the modulus.  The work on a
    block stays within a small multiple of its |T_p|^n.
    """
    modulus, blocks = _engine_blocks(coeff, form, budget)
    counts, value = {0: 1}, _ONE
    for i, (p, block) in enumerate(blocks):
        split = _block_summands(coeff, block, p, modulus)
        part = _jordan_counts(split, p, modulus)
        counts = _convolve(counts, part, modulus) if i else part
        value = value * _jordan_value(split, p, modulus)
    return CyclotomicSum(counts, modulus, value)


def _gauss_value(coeff, form, budget):
    """The exact value of _gauss_sum(coeff, form, budget), as an _Exact,
    with no histogram: the product of the blocks' closed forms
    (_jordan_value), after the same preamble (_engine_blocks), so with the
    same refusals.  It costs one elimination per block."""
    modulus, blocks = _engine_blocks(coeff, form, budget)
    value = _ONE
    for p, block in blocks:
        value = value * _jordan_value(_block_summands(coeff, block, p, modulus), p, modulus)
    return value


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
    # the exponent's minus sign goes into the coefficient matrix: -K
    return _gauss_sum(mat_neg(coupling_to_even(c)), manifold.form, budget)


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
    s x s integer matrix defining the quotient.  The form summed over is
    the linking form of k0, as in partition_function.  The sum is defined
    when every term depends only on its class in the quotient: always
    when l or k0 has an even diagonal, and for an odd pair only when
    moving a representative by k0 Z^s changes no term.  Otherwise it
    raises ValueError.  The sum splits over the p-primary parts of the
    quotient, with the budget bounding each part's summands and each step
    of convolving their histograms.
    """
    if not is_symmetric(l):
        raise ValueError("summand matrix must be symmetric")
    if not is_symmetric(k0):
        raise ValueError("modulus matrix must be symmetric")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    form, _ = _nonsingular_torsion_module(k0)
    return _gauss_sum(l if sign > 0 else mat_neg(l), form, budget)
