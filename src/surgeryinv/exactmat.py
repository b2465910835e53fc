"""Exact integer and rational matrix kernel.

Matrices are immutable tuples of row tuples.  Integer matrices hold Python
ints (arbitrary precision), rational matrices hold fractions.Fraction.
Everything here is exact: no floating point enters any computation, and
all transforms come with certificates (d = u*a*v for the Smith form,
t(p)*a*p = diag(a0, 0) for the block decomposition) that the test suite
checks verbatim.

The term budget that bounds every exponential step (Gauss-sum summands in
gauss, the evenized matrix in surgery) is defined here, in the module
every other one imports, so that the exact kernel commands load no
Gauss-sum code.
"""

from collections import namedtuple

DEFAULT_TERM_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """A computation would exceed the configured term budget: the summands
    of a Gauss sum, or the entries of an evenized linking matrix."""


def mat(rows):
    """Normalize an iterable of rows into a tuple-of-tuples matrix."""
    out = tuple(tuple(row) for row in rows)
    if out:
        width = len(out[0])
        if any(len(row) != width for row in out):
            raise ValueError("ragged rows")
    return out


def shape(a):
    return (len(a), len(a[0]) if a else 0)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(a):
    return tuple(zip(*a)) if a else ()


def mat_mul(a, b):
    rows_a, cols_a = shape(a)
    rows_b, cols_b = shape(b)
    if cols_a != rows_b:
        raise ValueError("shape mismatch in mat_mul")
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def is_symmetric(a):
    r, c = shape(a)
    return r == c and all(tuple(row) == col for row, col in zip(a, zip(*a)))


def is_even_symmetric(a):
    return is_symmetric(a) and all(a[i][i] % 2 == 0 for i in range(len(a)))


def diagonal(a):
    return tuple(a[i][i] for i in range(min(shape(a))))


def det_int(a):
    """Exact determinant of an integer matrix by Bareiss elimination.

    Fraction-free: every intermediate value is an integer (each division in
    the Bareiss recurrence is exact), so there is no coefficient blowup
    beyond what the minors themselves require.  det of the empty 0x0
    matrix is 1.
    """
    n, c = shape(a)
    if n != c:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rat_inverse(a):
    """Exact rational inverse (Gauss-Jordan over Fraction).

    Raises ValueError on singular input.  a * rat_inverse(a) is the
    identity exactly.
    """
    from fractions import Fraction

    n, c = shape(a)
    if n != c:
        raise ValueError("inverse of a non-square matrix")
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            raise ValueError("singular matrix")
        m[k], m[pivot_row] = m[pivot_row], m[k]
        inv = 1 / m[k][k]
        m[k] = [x * inv for x in m[k]]
        for i in range(n):
            if i != k and m[i][k] != 0:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return tuple(tuple(row[n:]) for row in m)


def int_inverse(u):
    """Inverse of a unimodular integer matrix, returned with int entries."""
    inv = rat_inverse(u)
    out = []
    for row in inv:
        if any(x.denominator != 1 for x in row):
            raise ValueError("matrix is not unimodular")
        out.append(tuple(int(x) for x in row))
    return tuple(out)


class SnfResult(namedtuple("SnfResult", "u d v")):
    """Smith normal form d = u * a * v with u, v unimodular.

    d is diagonal with nonnegative entries in a divisibility chain
    d[i] | d[i+1]; the nonzero entries are the invariant factors of the
    cokernel of a, padded with zeros up to min(shape).
    """

    __slots__ = ()

    def invariant_factors(self):
        return tuple(x for x in diagonal(self.d) if x != 0)


def smith_normal_form(a):
    """Smith normal form of an arbitrary integer matrix, with certified
    transforms: d = u * a * v, u and v unimodular.

    Pivot strategy: at each stage pick the nonzero entry of minimal
    absolute value in the remaining submatrix.  Arbitrary-precision ints
    make overflow impossible, but small pivots keep the coefficient
    growth of the transforms in check.

    Cost: at stage t the working matrix is the (rows - t) x (cols - t)
    block still to eliminate, since finished pivot rows and columns leave
    it.  Every row operation is also applied to a full row of u and every
    column operation to a full column of v, and the transform entries can
    grow far beyond the size of det(a), so this is the expensive way to
    learn the invariant factors.  Only the snf command prints u and v;
    homology, linking forms and block decompositions run the same
    elimination without u (and, for homology, without v).
    """
    d, u, v = _smith(a, True, True)
    return SnfResult(mat(u), mat(d), mat(v))


def _smith(a, keep_u, keep_v):
    """The elimination behind smith_normal_form, on lists of rows.

    Returns (d, u, v) with d = u * a * v, where u is None unless keep_u
    and v is None unless keep_v.  The pivots and the operations depend on
    the working matrix alone, so d, and u or v where kept, are the same
    whichever transforms a caller asks for.

    The working matrix w is only the trailing block still to eliminate:
    w[i][j] is entry (t + i, t + j) at stage t.  Once stage t is final its
    row and column are zero off the pivot, so the pivot is recorded and
    both are deleted from w; the pivot scan, the remainder checks, the row
    operations and the column swaps of stage t then touch (rows - t) x
    (cols - t) entries.  u and v stay full size, indexed at offset t, and
    d is rebuilt from the recorded pivots at the end.  Row operations are
    written out where they happen, one comprehension over the row of w and
    one over the row of u: at the sizes the commands see, a helper call per
    operation costs as much as the entries it updates.
    """
    rows, cols = shape(a)
    w = [list(row) for row in a]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)] if keep_u else None
    v = [[int(i == j) for j in range(cols)] for i in range(cols)] if keep_v else None
    pivots = []
    t = 0

    def add_col(j, c):
        # column t + j of v gains c times the pivot column t
        for r in v:
            r[t + j] += c * r[t]

    def swap_cols(j):
        # swap column j with the pivot column, in w and in v
        for r in w:
            r[0], r[j] = r[j], r[0]
        if v is not None:
            for r in v:
                r[t], r[t + j] = r[t + j], r[t]

    while w and w[0]:
        # locate the first minimal-|entry| pivot, row by row; a first +-1
        # is that entry, and ends the search
        best, least = None, 0
        for i, row in enumerate(w):
            for j, x in enumerate(row):
                x = abs(x)
                if x and (not least or x < least):
                    best, least = (i, j), x
                    if x == 1:
                        break
            if least == 1:
                break
        if best is None:
            break
        i, j = best
        w[0], w[i] = w[i], w[0]
        if u is not None:
            u[t], u[t + i] = u[t + i], u[t]
        if j:
            swap_cols(j)
        while True:
            top = w[0]
            p = top[0]
            # clear column 0; a nonzero remainder becomes the new, smaller
            # pivot: row i gains c times row 0, and the two rows swap.  A
            # +-1 pivot leaves no remainder, so no entry is checked under it
            unit = p in (1, -1)
            for i in () if unit else range(1, len(w)):
                x = w[i][0]
                if x % p:
                    c = -(x // p)
                    w[0], w[i] = [x + c * y for x, y in zip(w[i], top)], top
                    if u is not None:
                        u[t], u[t + i] = [x + c * y for x, y in zip(u[t + i], u[t])], u[t]
                    break
            else:
                for i in range(1, len(w)):
                    x = w[i][0]
                    if x:
                        c = -(x // p)
                        w[i] = [x + c * y for x, y in zip(w[i], top)]
                        if u is not None:
                            u[t + i] = [x + c * y for x, y in zip(u[t + i], u[t])]
                # clear row 0 by column operations: column 0 is zero off
                # row 0 now, so in w each touches row 0 alone
                for j in () if unit else range(1, len(top)):
                    x = top[j]
                    if x % p:
                        c = -(x // p)
                        top[j] = x + c * p
                        if v is not None:
                            add_col(j, c)
                        swap_cols(j)
                        break
                else:
                    for j in range(1, len(top)):
                        x = top[j]
                        if x:
                            top[j] = 0
                            if v is not None:
                                add_col(j, -(x // p))
                    # enforce the divisibility chain: fold any non-multiple
                    # back into row 0 and keep reducing; +-1 divides every
                    # entry.  Row 0 is (p, 0, ..., 0), never the one found
                    if unit:
                        break
                    bad = next((i for i, row in enumerate(w) for x in row if x % p), None)
                    if bad is None:
                        break
                    w[0] = [x + y for x, y in zip(top, w[bad])]
                    if u is not None:
                        u[t] = [x + y for x, y in zip(u[t], u[t + bad])]
        pivots.append(w[0][0])
        del w[0]
        for r in w:
            del r[0]
        t += 1

    d = [[0] * cols for _ in range(rows)]
    for i, p in enumerate(pivots):
        d[i][i] = abs(p)
        if p < 0 and u is not None:
            u[i] = [-x for x in u[i]]
    return d, u, v


def _rank(d):
    """Rank of a matrix from its Smith form d (zeros trail the diagonal)."""
    return sum(1 for i in range(min(shape(d))) if d[i][i])


def signature(a):
    """Signature of a symmetric matrix: #positive minus #negative eigenvalues.

    Computed by fraction-free symmetric (Bareiss) elimination with one
    pivot rule: a nonzero diagonal entry d, swapped to the front.  The
    trailing block becomes (d * m[i][j] - m[i][0] * m[0][j]) // prev and
    prev becomes d.  The working matrix is the rational Schur complement
    times prev, so each pivot adds the sign of d / prev.  If the remaining
    diagonal vanishes, take the least nonzero entry b = m[i][j] in absolute
    value (as _smith picks its pivots) and add row j to row i and column j
    to column i: a unimodular congruence that puts 2b on the diagonal.
    Every division is exact: each entry is a bordered minor of a matrix
    congruent to a (Sylvester's identity), and the congruence step is
    linear in the row and column it changes.
    """
    if not is_symmetric(a):
        raise ValueError("signature of a non-symmetric matrix")
    m = [list(row) for row in a]
    sig, prev = 0, 1
    while m:
        n = len(m)
        p = next((i for i in range(n) if m[i][i]), None)
        if p is None:
            off = min(((i, j) for i in range(n) for j in range(n) if m[i][j]),
                      key=lambda ij: abs(m[ij[0]][ij[1]]), default=None)
            if off is None:
                break  # zero matrix left; contributes nothing
            p, j = off
            m[p] = [x + y for x, y in zip(m[p], m[j])]
            for row in m:
                row[p] += row[j]
        m[0], m[p] = m[p], m[0]
        for row in m:
            row[0], row[p] = row[p], row[0]
        d, top = m[0][0], m[0][1:]
        sig += 1 if (d > 0) == (prev > 0) else -1
        m = [[(d * x - row[0] * y) // prev for x, y in zip(row[1:], top)]
             for row in m[1:]]
        prev = d
    return sig


class BlockDecomposition(namedtuple("BlockDecomposition", "p a0 rank")):
    """Unimodular congruence t(p) * a * p = diag(a0, 0) with a0 nonsingular.

    rank is the rank of a over the rationals, i.e. the size of a0.
    """

    __slots__ = ()


def block_decompose(a):
    """Split a symmetric integer matrix into a nonsingular block plus zeros.

    The last columns of the Smith transform v form a basis of the integer
    kernel of a; because a is symmetric, any unimodular matrix whose
    trailing columns span the kernel already conjugates a into
    diag(a0, 0).  When a is nonsingular, p is the identity.  The Smith
    elimination carries v only.
    """
    if not is_symmetric(a):
        raise ValueError("block decomposition needs a symmetric matrix")
    d, _, v = _smith(a, False, True)
    n, r = len(a), _rank(d)
    if r == n:
        return BlockDecomposition(identity(n), a, n)
    p = mat(v)
    conj = mat_mul(transpose(p), mat_mul(a, p))
    a0 = tuple(row[:r] for row in conj[:r])
    if any(conj[i][j] != 0 for i in range(n) for j in range(n)
           if i >= r or j >= r):
        raise AssertionError("kernel columns failed to split off a zero block")
    return BlockDecomposition(p, a0, r)
