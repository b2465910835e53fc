"""Homology and torsion linking form of a surgered 3-manifold.

For a closed oriented 3-manifold given by surgery on a link with n x n
linking matrix L, the first homology is Z^n / L Z^n: its free rank b1 is
the corank of L and its torsion part is read off the Smith normal form of L
itself, singular or not.  The same Smith form gives cyclic generators
aligned with the invariant factors and the torsion linking form on them,
with no matrix inverse (see linking_form_with_generators).
"""

import math
from collections import namedtuple

from .exactmat import _rank, _smith, is_symmetric


class TorsionGroup(namedtuple("TorsionGroup", "factors")):
    """Finite abelian group in invariant-factor form p1 | p2 | ... | pt."""

    __slots__ = ()

    def __new__(cls, factors):
        if any(p < 2 for p in factors):
            raise ValueError("invariant factors must be >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        return super().__new__(cls, factors)

    @property
    def order(self):
        return math.prod(self.factors)


class Group(namedtuple("Group", "free_rank factors", defaults=((),))):
    """Finitely generated abelian group: free rank plus torsion factors."""

    __slots__ = ()

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z_{p}" for p in self.factors)
        return " + ".join(parts) if parts else "0"


class HomologySummary(namedtuple("HomologySummary", "b1 torsion h0 h1 h2 h3")):
    """All homology of the closed oriented 3-manifold, fixed by (b1, torsion).

    b1 is an int, torsion a TorsionGroup and h0..h3 are Groups.  Poincare
    duality and universal coefficients force h0 = h3 = Z, h1 = Z^b1 +
    torsion and h2 = Z^b1.
    """

    __slots__ = ()


class LinkingForm(namedtuple("LinkingForm", "factors gram modulus")):
    """Symmetric bilinear form on the torsion group, valued in Q/Z.

    Generator i has order factors[i], and the i-th and j-th generators pair
    to q[i][j] = gram[i][j] / modulus mod 1.  gram holds integer numerators,
    reduced only when read, and modulus is the group's exponent (1 for the
    trivial group); factors[i] times any entry of row i is a multiple of
    modulus.  q and q_mod1 are exact Fraction views of gram.
    """

    __slots__ = ()

    @property
    def rank(self):
        return len(self.factors)

    @property
    def order(self):
        return math.prod(self.factors)

    @property
    def q(self):
        from fractions import Fraction

        m = self.modulus
        return tuple(tuple(Fraction(x, m) for x in row) for row in self.gram)

    def q_mod1(self):
        from fractions import Fraction

        m = self.modulus
        return tuple(tuple(Fraction(x % m, m) for x in row) for row in self.gram)


def first_homology(l):
    """First homology of the surgered manifold: (b1, torsion group).

    Reads the invariant factors only: the Smith elimination carries no
    transform."""
    if not is_symmetric(l):
        raise ValueError("linking matrix must be symmetric")
    d, _, _ = _smith(l, False, False)
    r = _rank(d)
    factors = tuple(d[i][i] for i in range(r) if d[i][i] >= 2)
    return len(l) - r, TorsionGroup(factors)


def _summary(b1, torsion):
    return HomologySummary(b1, torsion, Group(1), Group(b1, torsion.factors),
                           Group(b1), Group(1))


def full_homology(l):
    return _summary(*first_homology(l))


def _torsion_module(l):
    """(rank, linking form, generators) of l, singular or not, from one
    Smith form that carries the column transform v only; why the formula
    holds for singular l is in linking_form_with_generators."""
    if not is_symmetric(l):
        raise ValueError("linking matrix must be symmetric")
    d, _, v = _smith(l, False, True)
    r = _rank(d)
    cols = [k for k in range(r) if d[k][k] >= 2]
    gens = []
    for k in cols:
        image = [sum(x * v[j][k] for j, x in enumerate(row)) for row in l]
        if any(x % d[k][k] for x in image):
            raise AssertionError("Smith form failed to give an integer generator")
        gens.append(tuple(x // d[k][k] for x in image))
    e = d[cols[-1]][cols[-1]] if cols else 1
    gram = tuple(
        tuple(sum(x * v[i][m] for i, x in enumerate(g)) * (e // d[m][m]) for m in cols)
        for g in gens
    )
    form = LinkingForm(tuple(d[k][k] for k in cols), gram, e)
    _check_form(form)
    return r, form, tuple(gens)


def linking_form_with_generators(l):
    """Torsion linking form plus the generator columns it is written in.

    With d = u * l * v the Smith form of the n x n linking matrix l, the
    classes of the columns g_k = inverse(u) e_k (for invariant factors
    d_k >= 2) generate the torsion of Z^n / l Z^n, the k-th with order
    d_k: x lies in l Z^n exactly when u x lies in d Z^n.  The form pairs
    g_j with g_k as t(g_j) * y / d_k for any y with l y = d_k g_k, read
    modulo 1.  Neither inverse is formed: l v = inverse(u) d gives
    g_k = l v e_k / d_k, an exact division, and y = v e_k.  The pairing is
    held as the integer t(g_j) v e_k (e / d_k) over the exponent e, the
    largest d_k, and no rational is formed either.

    The pairing holds for singular l too.  Two choices of y differ by a
    vector w of ker l, and every torsion class pairs to 0 with ker l:
    d_j g_j = l z for some z, so d_j t(g_j) w = t(z) l w = 0.  The
    generators are vectors of length n, in the coordinates of l.

    A different valid generator choice changes Q only by a group
    automorphism, which every Gauss sum downstream is blind to.
    """
    _, form, gens = _torsion_module(l)
    return form, gens


def linking_form(l):
    """Torsion linking form of the surgered manifold."""
    return linking_form_with_generators(l)[0]


def _check_form(form):
    m, g = form.modulus, form.gram
    # well-definedness on the group: p_i * q[i][j] and p_j * q[i][j] in Z
    for i, p in enumerate(form.factors):
        for j in range(form.rank):
            for mult in (p, form.factors[j]):
                if mult * g[i][j] % m:
                    raise AssertionError("linking form not defined on the group")
    for i in range(form.rank):
        for j in range(form.rank):
            if (g[i][j] - g[j][i]) % m:
                raise AssertionError("linking form not symmetric mod 1")


class ManifoldPresentation(namedtuple("ManifoldPresentation", "matrix homology form")):
    """A linking matrix together with its HomologySummary and LinkingForm."""

    __slots__ = ()

    @property
    def b1(self):
        return self.homology.b1

    @property
    def torsion(self):
        return self.homology.torsion


def presentation(l):
    """Bundle a linking matrix with its computed invariants."""
    rank, form, _ = _torsion_module(l)
    return ManifoldPresentation(
        l, _summary(len(l) - rank, TorsionGroup(form.factors)), form)


def _negative_continued_fraction(p, q):
    """Expansion p/q = a1 - 1/(a2 - 1/(... - 1/ak)) with every ai >= 2."""
    terms = []
    while q > 0:
        a = -((-p) // q)  # ceil(p / q)
        terms.append(a)
        p, q = q, a * q - p
    return terms


def lens_chain(p, q):
    """Integer surgery chain presenting the lens space L(p, q).

    A chain of unknots with framings -a1, ..., -ak (consecutive components
    linking once), the ai the negative continued fraction of p/q.  For
    q = 1 this is a single unknot with framing -p.
    """
    if p < 1:
        raise ValueError("lens space parameter p must be >= 1")
    if math.gcd(p, q) != 1:
        raise ValueError("lens space parameters must be coprime")
    q = q % p if p > 1 else 1
    terms = _negative_continued_fraction(p, q)
    k = len(terms)
    rows = []
    for i, a in enumerate(terms):
        row = [0] * k
        row[i] = -a
        if i:
            row[i - 1] = 1
        if i + 1 < k:
            row[i + 1] = 1
        rows.append(tuple(row))
    return tuple(rows)


def lens_presentation(p, q):
    """Presentation of L(p, q): torsion Z_p with linking form -q/p mod 1.

    The linking matrix is the surgery chain from lens_chain.  The cached
    form is pinned to the representative [[-q/p]]; the generator-derived
    form of the chain agrees with it up to a group automorphism (and up to
    conjugation for the opposite orientation), which leaves all partition
    functions unchanged.

    Certified without a Smith form: the chain's determinant (a continuant)
    is +-p, and its minor without the first row and last column is
    unitriangular, so the cokernel is cyclic of order p.
    """
    chain = lens_chain(p, q)
    prev, det = 0, 1
    for i, row in enumerate(chain):
        prev, det = det, row[i] * det - (row[i - 1] ** 2 if i else 0) * prev
    if abs(det) != p:
        raise AssertionError("surgery chain has the wrong torsion group")
    form = LinkingForm((p,), ((-q,),), p) if p > 1 else LinkingForm((), (), 1)
    return ManifoldPresentation(chain, _summary(0, TorsionGroup(form.factors)), form)
