"""Both sides of the Gauss-sum reciprocity identity and the induced duality.

For a symmetric m x m matrix L (nonsingular block L0, rank r) and an even
symmetric n x n matrix K (nonsingular block K0, rank s) the identity reads

  |det K0|^-(m - r/2) * sum over (Z^s/K0 Z^s)^m of e^{ pi i t(x)(L x K0^-1) x}
    = |det L0|^-(n - s/2) * e^{ i pi sigma(K) sigma(L) / 4}
      * sum over (Z^r/L0 Z^r)^n of e^{- pi i t(k)(K x L0^-1) k}.

The right-hand sum is a U(1)^n partition function on the manifold surgered
along L; the left-hand sum is, up to conjugation, a U(1)^m partition
function on a manifold surgered along K (when L is also even).  That
exchange of the roles of coupling and linking matrix is the duality
implemented by cs_dual.

Each matrix M takes one Smith form and one signature.  M is unimodularly
congruent to diag(M0, 0), so |det M0| is the torsion order of its cokernel,
M's linking form (refined mod 2 if M is even) is M0's (Kawauchi-Kojima),
and det M0 has the sign (-1)^((rank - sigma) / 2).  No block is split off.
"""

from collections import namedtuple
from fractions import Fraction

from .exactmat import is_even_symmetric, is_symmetric, mat_neg, signature
from .gauss import _Exact, _gauss_value
from .homology import presentation


class ReciprocityReport(namedtuple(
        "ReciprocityReport",
        "lhs rhs abs_diff sigma_k sigma_l det_k0 det_l0 m n r s l_even precision")):
    """Both sides of the reciprocity identity, correctly rounded.

    lhs and rhs are ComplexValues and abs_diff an mpmath number, all at
    `precision` bits; the signatures and determinants are exact ints.
    m, n are the sizes of the linking matrix l and the coupling matrix k;
    r, s their ranks; det_l0, det_k0 the determinants of their nonsingular
    blocks.  l_even records whether l had an even diagonal.  The identity
    requires evenness only of k: the left-hand sum runs over k's linking
    form, whose quadratic refinement the even k defines, so that sum is
    well defined for an odd l too.
    """

    __slots__ = ()


def chat_from_even(l):
    """Upper triangular coupling matrix with chat + t(chat) = l.

    Entries: l[i][j] above the diagonal, l[i][i]/2 on it, zero below.
    Requires an even diagonal.
    """
    if not is_symmetric(l):
        raise ValueError("matrix must be symmetric")
    n = len(l)
    if any(l[i][i] % 2 for i in range(n)):
        raise ValueError("matrix must have an even diagonal")
    return tuple(
        tuple(
            l[i][j] if i < j else (l[i][i] // 2 if i == j else 0)
            for j in range(n)
        )
        for i in range(n)
    )


def reciprocity_sides(l, k, precision=128, budget=None):
    """Evaluate both sides of the reciprocity identity for (l, k).

    l is any symmetric integer matrix, k an even symmetric one.  One Smith
    form of each gives its rank and the |det| of its nonsingular block, and
    its signature the sign of that determinant.  Each Gauss sum is read
    exactly from the closed form of its Jordan summands (gauss._gauss_value)
    as sqrt(N) e^{2 pi i j/8}, N rational (the right-hand sum on -k, which
    carries its minus sign), and so is each side: the determinant powers
    multiply N and e^{i pi sigma(K) sigma(L)/4} adds sigma(K) sigma(L) to
    j.  Each component of lhs and rhs is the exact side's, correctly
    rounded at `precision` bits, and abs_diff is |lhs - rhs| of those
    components at `precision` bits: exactly 0 when the sides are equal.
    """
    if not is_symmetric(l):
        raise ValueError("linking matrix must be symmetric")
    if not is_even_symmetric(k):
        raise ValueError("coupling-side matrix must be symmetric with even diagonal")
    m = len(l)
    n = len(k)
    man_l, man_k = presentation(l), presentation(k)
    r, s = m - man_l.b1, n - man_k.b1
    sigma_l, sigma_k = signature(l), signature(k)
    det_l0 = (-1) ** ((r - sigma_l) // 2) * man_l.torsion.order
    det_k0 = (-1) ** ((s - sigma_k) // 2) * man_k.torsion.order

    # |det K0|^-(m - r/2) and |det L0|^-(n - s/2), squared, over the sums
    lhs = _gauss_value(l, man_k.form, budget) * _Exact(
        Fraction(man_k.torsion.order) ** (r - 2 * m), 0)
    rhs = _gauss_value(mat_neg(k), man_l.form, budget) * _Exact(
        Fraction(man_l.torsion.order) ** (s - 2 * n), sigma_k * sigma_l % 8)
    lhs_val, rhs_val = lhs.components(precision), rhs.components(precision)

    from mpmath import mp

    with mp.workprec(precision):
        diff = +abs(mp.mpc(lhs_val.re, lhs_val.im) - mp.mpc(rhs_val.re, rhs_val.im))

    return ReciprocityReport(
        lhs=lhs_val,
        rhs=rhs_val,
        abs_diff=diff,
        sigma_k=sigma_k,
        sigma_l=sigma_l,
        det_k0=det_k0,
        det_l0=det_l0,
        m=m,
        n=n,
        r=r,
        s=s,
        l_even=is_even_symmetric(l),
        precision=precision,
    )


class DualTheory(namedtuple("DualTheory", "linking coupling")):
    """The dual data: linking matrix k, coupling matrix built from -l."""

    __slots__ = ()


def cs_dual(l, k):
    """Dual of the U(1)^n theory (coupling k) on the manifold surgered on l.

    Both matrices must be even symmetric.  The dual is the U(1)^m theory
    whose coupling matrix is the upper-triangular half of -l and whose
    linking matrix is k; its partition function is, up to complex
    conjugation, the left-hand Gauss sum of the reciprocity identity for
    (l, k).
    """
    if not is_even_symmetric(l):
        raise ValueError("linking matrix must be symmetric with even diagonal")
    if not is_even_symmetric(k):
        raise ValueError("coupling-side matrix must be symmetric with even diagonal")
    return DualTheory(linking=k, coupling=chat_from_even(mat_neg(l)))
