"""Linking matrices as surgery presentations and Kirby moves on them.

A framed link in the 3-sphere is described here only through its linking
matrix: framings on the diagonal, pairwise linking numbers off it.  The
two Kirby moves act on that matrix directly -- the first one borders it
with an isolated +-1 component, the second one slides one component over
another, which is a unimodular congruence.  Every public function returns
a new tuple-of-tuples matrix; nothing is mutated.  The moves and evenize
share one in-place kernel on list-of-lists matrices (_border, _slide, _drop).

Indices are 0-based throughout the library (the command line front end
speaks 1-based).
"""

from .exactmat import (
    DEFAULT_TERM_BUDGET,
    BudgetExceededError,
    is_symmetric,
    mat,
    shape,
)


def unknot(framing):
    """Single unknot component: surgery gives the lens space L(-framing, 1)."""
    return ((framing,),)


def hopf(f1, f2):
    """Hopf link with framings f1, f2 and linking number 1.

    With framings -p, -q the surgered manifold is the lens space
    L(pq - 1, q).
    """
    return ((f1, 1), (1, f2))


def borromean():
    """Borromean rings, all framings 0: surgery gives the 3-torus.

    The linking matrix is the 3x3 zero matrix -- pairwise linking numbers
    do not see the triple linkage.
    """
    return ((0, 0, 0),) * 3


_PRESETS = {"unknot": (unknot, 1), "hopf": (hopf, 2), "borromean": (borromean, 0)}


def preset(name, params=()):
    """Look up a named example link: unknot(f), hopf(f1,f2), borromean."""
    try:
        fn, arity = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}") from None
    params = tuple(params)
    if len(params) != arity:
        raise ValueError(f"preset {name!r} takes {arity} parameter(s)")
    return fn(*params)


def _check_symmetric(l):
    if not is_symmetric(l):
        raise ValueError("linking matrix must be symmetric")


def _border(m, sign):
    """First Kirby move in place: border m with a split unknot of framing sign."""
    for row in m:
        row.append(0)
    m.append([0] * len(m) + [sign])


def _slide(m, i0, j0, c):
    """c second Kirby moves at once, in place: row and column i0 gain c
    times row and column j0, the congruence by I + c E[j0,i0] = (I + E[j0,i0])^c."""
    row, src = m[i0], m[j0]
    framing = row[i0] + 2 * c * row[j0] + c * c * src[j0]
    m[i0] = row = [x + c * y for x, y in zip(row, src)]
    for i, x in enumerate(row):
        m[i][i0] = x
    row[i0] = framing


def _drop(m, index):
    """Inverse first Kirby move, in place: delete component index."""
    del m[index]
    for row in m:
        del row[index]


def kirby1(l, sign):
    """First Kirby move: add a split unknot component with framing +-1."""
    _check_symmetric(l)
    if sign not in (1, -1):
        raise ValueError("framing of the new component must be +1 or -1")
    m = [list(row) for row in l]
    _border(m, sign)
    return mat(m)


def kirby1_inverse(l, index):
    """Remove component `index`: it must be isolated with framing +-1."""
    _check_symmetric(l)
    n = len(l)
    if not 0 <= index < n:
        raise ValueError("component index out of range")
    if l[index][index] not in (1, -1):
        raise ValueError("component framing is not +-1")
    if any(l[index][j] != 0 for j in range(n) if j != index):
        raise ValueError("component is not isolated")
    m = [list(row) for row in l]
    _drop(m, index)
    return mat(m)


def kirby2(l, i0, j0, sign):
    """Second Kirby move: slide component i0 over component j0.

    Row and column i0 gain sign * (row and column j0): the result is
    t(P) * l * P for the elementary unimodular P = I + sign * E[j0,i0].
    """
    _check_symmetric(l)
    n = len(l)
    if i0 == j0:
        raise ValueError("cannot slide a component over itself")
    if not (0 <= i0 < n and 0 <= j0 < n):
        raise ValueError("component index out of range")
    if sign not in (1, -1):
        raise ValueError("slide sign must be +1 or -1")
    m = [list(row) for row in l]
    _slide(m, i0, j0, sign)
    return mat(m)


def apply_move(l, move):
    """Apply one transcript entry: ("1", s) | ("1inv", i) | ("2", i0, j0, s)."""
    kind = move[0]
    if kind == "1":
        return kirby1(l, move[1])
    if kind == "1inv":
        return kirby1_inverse(l, move[1])
    if kind == "2":
        return kirby2(l, move[1], move[2], move[3])
    raise ValueError(f"unknown move kind {kind!r}")


def coupling_to_even(c):
    """Symmetrize a coupling matrix: k = c + t(c) has an even diagonal."""
    n, cols = shape(c)
    if n != cols:
        raise ValueError("coupling matrix must be square")
    return tuple(
        tuple(c[i][j] + c[j][i] for j in range(n)) for i in range(n)
    )


def _solve_gf2(rows_mod2, target):
    """Solve B x = t over GF(2); B symmetric n x n given as bitmask rows.

    Returns a solution as a set of column indices (free variables set
    to 0).  For symmetric B the diagonal vector is orthogonal to ker B,
    hence always lies in the column space, so a solution exists whenever
    t is the diagonal of B.
    """
    n = len(rows_mod2)
    aug = [rows_mod2[i] | (target[i] << n) for i in range(n)]
    pivot_cols = []
    r = 0
    for col in range(n):
        pr = next((i for i in range(r, n) if (aug[i] >> col) & 1), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        for i in range(n):
            if i != r and (aug[i] >> col) & 1:
                aug[i] ^= aug[r]
        pivot_cols.append(col)
        r += 1
    if any((aug[i] >> n) & 1 for i in range(r, n)):
        raise AssertionError("GF(2) system is inconsistent")
    return {pivot_cols[i] for i in range(r) if (aug[i] >> n) & 1}


def evenize(l, budget=None):
    """Make every framing even by a sequence of Kirby moves.

    Returns (even_matrix, transcript); replaying the transcript with
    apply_move on the input reproduces the output exactly.  The output
    size is known before the first move: n + |t(chi_S) L chi_S| for the
    subset S below.  When its size^2 entries exceed the term budget
    (default DEFAULT_TERM_BUDGET) it raises BudgetExceededError.

    Method: border the matrix with one +1-framed pivot component and slide
    it over a subset S of the old components chosen so that afterwards
    every component j links the pivot with the same parity as its own
    framing (over GF(2) this asks for (L mod 2) * chi_S = diag(L) mod 2,
    a system a symmetric matrix always solves).  Auxiliary -1 or +1
    components then drag the pivot framing to exactly 1; sliding each
    component over the pivot until their linking vanishes flips each
    framing's parity once per slide, which by the parity matching lands
    every framing on an even number.  Finally the pivot, isolated again
    with framing 1, is removed.

    Cost: the moves' in-place kernel acts on one list-of-lists matrix,
    O(size) per border or slide, where each public move (and apply_move)
    copies and re-checks the whole matrix.  A run of c unit slides of one
    component over the pivot is one _slide by c, since (I + sE)^c = I + csE;
    the transcript still lists every unit move.
    """
    _check_symmetric(l)
    n = len(l)
    if all(l[i][i] % 2 == 0 for i in range(n)):
        return l, []

    rows_mod2 = [
        sum((l[i][j] & 1) << j for j in range(n)) for i in range(n)
    ]
    target = [l[i][i] & 1 for i in range(n)]
    subset = _solve_gf2(rows_mod2, target)
    # the pivot ends its slides with framing 1 + t(chi_S) L chi_S, and each
    # unit of distance from 1 costs one auxiliary component
    size = n + abs(sum(l[i][j] for i in subset for j in subset))
    budget = DEFAULT_TERM_BUDGET if budget is None else budget
    if size * size > budget:
        raise BudgetExceededError(
            f"the evenized {size}x{size} matrix exceeds the term budget of {budget}"
        )

    m = [list(row) for row in l]
    pivot = n
    _border(m, 1)
    transcript = [("1", 1)]
    for j in sorted(subset):
        _slide(m, pivot, j, 1)
        transcript.append(("2", pivot, j, 1))
    for j in range(n):
        assert (m[j][pivot] - m[j][j]) % 2 == 0

    # walk the pivot framing to exactly 1, one auxiliary component per step
    while m[pivot][pivot] != 1:
        step = -1 if m[pivot][pivot] > 1 else 1
        _border(m, step)
        _slide(m, pivot, len(m) - 1, 1)
        transcript += [("1", step), ("2", pivot, len(m) - 1, 1)]

    # detach the auxiliaries (linking +-1) and then the old components: each
    # unit slide over the pivot (framing 1) moves the linking x by one
    for j in [*range(pivot + 1, len(m)), *range(n)]:
        x = m[j][pivot]
        if x != 0:
            _slide(m, j, pivot, -x)
            transcript.extend([("2", j, pivot, 1 if x < 0 else -1)] * abs(x))

    # inverse first Kirby move on the pivot, isolated with framing 1
    assert m[pivot][pivot] == 1
    assert not any(x for j, x in enumerate(m[pivot]) if j != pivot)
    _drop(m, pivot)
    transcript.append(("1inv", pivot))
    assert all(m[i][i] % 2 == 0 for i in range(len(m)))
    return mat(m), transcript
