"""Shared random-input generators and brute-force oracles for the tests.

Everything takes an explicit random.Random so that every test is seeded
and reproducible.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

from hypothesis import strategies as st


def rand_int_matrix(rng, rows, cols, lo=-9, hi=9):
    return tuple(
        tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows)
    )


def rand_symmetric(rng, n, lo=-6, hi=6):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    return tuple(tuple(row) for row in m)


def rand_even_symmetric(rng, n, lo=-6, hi=6):
    m = [list(row) for row in rand_symmetric(rng, n, lo, hi)]
    for i in range(n):
        m[i][i] = 2 * rng.randint(lo // 2, hi // 2)
    return tuple(tuple(row) for row in m)


def draw_symmetric(draw, size, entries):
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            rows[i][j] = rows[j][i] = draw(entries)
    return tuple(map(tuple, rows))


@st.composite
def symmetric_matrices(draw, max_size=4, singular=False, even=False):
    """t(b) s b for a random integer r x n matrix b and symmetric s:
    singular whenever r < n or b has dependent rows, and r < n always
    when singular; even (s with an even diagonal) when even."""
    from surgeryinv.exactmat import mat_mul, transpose

    n = draw(st.integers(1, max_size))
    r = draw(st.integers(0, n - 1 if singular else n))
    entries = st.integers(-4, 4)
    if r == 0:
        return zeros(n, n)
    b = tuple(tuple(draw(entries) for _ in range(n)) for _ in range(r))
    s = draw_symmetric(draw, r, entries)
    if even:
        s = tuple(tuple(2 * x if i == j else x for j, x in enumerate(row))
                  for i, row in enumerate(s))
    return mat_mul(transpose(b), mat_mul(s, b))


def brute_radical_terms(k, form):
    """Radical of B(u,v) = t(u)(K x Q)v mod 1 on the torsion power, and the
    partition phases on it, both by exhaustive enumeration."""
    n = len(k)
    t = form.rank
    q = form.q
    elements = list(itertools.product(*(range(p) for p in form.factors)))
    total = len(elements) ** n

    def in_radical(z):
        flat = [x for block in z for x in block]
        for i in range(n):
            for a in range(t):
                val = sum(
                    k[i][j] * q[a][b] * flat[j * t + b]
                    for j in range(n) for b in range(t)
                )
                if Fraction(val) % 1 != 0:
                    return False
        return True

    phases = []
    for z in itertools.product(elements, repeat=n):
        if in_radical(z):
            flat = tuple(x for block in z for x in block)
            phases.append(quadratic_phase(k, form, flat))
    return total, phases


def zeros(rows, cols):
    return tuple((0,) * cols for _ in range(rows))


def signed(a, sign):
    """a for sign +1 and -a for sign -1: the coefficient matrix that gives
    the Gauss-sum engine a sum of that sign."""
    return a if sign > 0 else tuple(tuple(-x for x in row) for row in a)


def direct_sum(a, b):
    ca = len(a[0]) if a else 0
    cb = len(b[0]) if b else 0
    return tuple(row + (0,) * cb for row in a) + tuple((0,) * ca + row for row in b)


def rank(a):
    """Rank of an integer matrix: the number of its invariant factors."""
    from surgeryinv.exactmat import smith_normal_form

    return len(smith_normal_form(a).invariant_factors())


def quadratic_phase(k, form, u):
    """Phase -(1/2) t(u) (k x Q) u mod 1 of one partition-function term, at
    any representative vector u (one block of form.rank entries per row of
    k), by direct Fraction arithmetic."""
    n, t = len(k), form.rank
    q = form.q
    total = Fraction(0)
    for i in range(n):
        for j in range(n):
            if k[i][j]:
                total += k[i][j] * sum(
                    u[i * t + a] * q[a][b] * u[j * t + b]
                    for a in range(t) for b in range(t)
                )
    return Fraction(-total / 2) % 1


def phase_sum(terms):
    """The CyclotomicSum of rational phases, for the expected sums the
    engine's are compared with: terms map (or list pairs of) a phase, read
    mod 1, to an integer multiplicity; equal phases merge, zero
    multiplicities drop, and the keys are written over the lcm of the
    phases' denominators."""
    from surgeryinv.gauss import CyclotomicSum

    clean = {}
    for phase, mult in terms.items() if isinstance(terms, dict) else terms:
        p = Fraction(phase) % 1
        clean[p] = clean.get(p, 0) + mult
    clean = {p: m for p, m in clean.items() if m}
    modulus = math.lcm(*(p.denominator for p in clean))
    return CyclotomicSum({p.numerator * (modulus // p.denominator): m
                          for p, m in clean.items()}, modulus)


def read_by_phases(s, precision):
    """A CyclotomicSum read out one phase at a time, whatever value it
    carries: the closed form's oracle.  Each phase k/L in lowest terms
    takes one expjpi call, whose components are rounded to integers scaled
    by 2^W; these are multiplied by the phase's multiplicity and summed
    exactly, and the sum is rounded once to `precision` bits.  A precision
    below 1 bit raises ValueError.

    Error: write u = 2^-W.  The argument 2k/L and expjpi are computed at
    W + 10 bits, so each scaled component lies within u of its exact
    value, and the exact integer sum within u sum |mult|.  With W =
    precision + bitlen(sum |mult|) + 8 that is under 2^-(precision+8), and
    the final rounding adds at most half an ulp: each component is within
    1.01 * 2^-precision * max(1, |value|).  A sum over L = 1, 2 or 4, such
    as the empty sum or {0: 1}, comes out exact.
    """
    from mpmath import mp

    from surgeryinv.gauss import ComplexValue

    if precision < 1:
        raise ValueError(f"precision must be at least 1 bit, not {precision}")
    items = s._reduced_items()
    width = precision + sum(abs(mult) for _, _, mult in items).bit_length() + 8
    re = im = 0
    with mp.workprec(width + 10):
        for k, den, mult in items:
            z = mp.expjpi(mp.mpf(2 * k) / den)
            re += mult * _fixed(z.real, width)
            im += mult * _fixed(z.imag, width)
    return ComplexValue(mp.mpf((re, -width), prec=precision),
                        mp.mpf((im, -width), prec=precision), precision)


def _fixed(x, width):
    """The mpf x scaled by 2^width and rounded to an integer."""
    sign, man, exp, _ = x._mpf_
    man, exp = -man if sign else man, exp + width
    return man << exp if exp >= 0 else (man + (1 << (-exp - 1))) >> -exp


def block_counts(coeff, form):
    """Histogram key -> count of t(u)(coeff x gram)u mod 2 modulus, the
    engine's key modulus, over the whole box of a LinkingForm to the power
    len(coeff), summand by summand: the oracle for the engine's Jordan-form
    counts.  One copy needs only each representative's pairing with itself;
    more copies take the table of all pairings, |T|^2 entries."""
    factors, g, modulus = form.factors, form.gram, 2 * form.modulus
    t, n = len(factors), len(coeff)
    reps = list(itertools.product(*(range(p) for p in factors)))

    def pair(x, y):
        return sum(x[a] * g[a][b] * y[b] for a in range(t) for b in range(t))

    if n == 1:
        return dict(Counter(coeff[0][0] * pair(x, x) % modulus for x in reps))
    gram = [[pair(x, y) for y in reps] for x in reps]
    weights = [(i, j, coeff[i][j] * (1 if i == j else 2))
               for i in range(n) for j in range(i, n) if coeff[i][j]]
    counts = Counter()
    for combo in itertools.product(range(len(reps)), repeat=n):
        counts[sum(w * gram[combo[i]][combo[j]] for i, j, w in weights) % modulus] += 1
    return dict(counts)


def representatives_matter(l, k0):
    """Brute force: does moving one fixed representative x_i by d_a times
    the a-th Smith generator, a vector of k0 Z^s, change a term of the
    lattice sum of l over Z^s / k0 Z^s?

    The change in the term t(x)(l x inverse(k0))x / 2 is a sum of one piece
    per slot j, each a function of x_j alone.  So it vanishes on every
    tuple of representatives exactly when each piece takes one value over
    all the representatives and those values cancel; every slot is
    enumerated on its own, m |T| values per shift rather than |T|^m.  Each
    piece is affine in x_j: with y the shift and P(y, x) = t(y) inverse(k0)
    x / 2, it is 2 l_ij P(y, x_j) for j != i and l_ii (2 P(y, x_i) +
    P(y, y)) for j = i, so the row of P(y, .) is formed once per shift and
    its product with each representative serves every slot.
    """
    from surgeryinv.exactmat import det_int, rat_inverse
    from surgeryinv.gauss import coset_representatives
    from surgeryinv.homology import linking_form_with_generators

    s, m = len(k0), len(l)
    det = det_int(k0)
    modulus = 2 * det * det
    adj = [[int(x * det) for x in row] for row in rat_inverse(k0)]
    reps, _ = coset_representatives(k0)
    form, gens = linking_form_with_generators(k0)

    for g, d in zip(gens, form.factors):
        shift = tuple(d * x for x in g)
        # P(shift, x) = sum_b row_b x_b / (2 det^2)
        row = [det * sum(shift[a] * adj[a][b] for a in range(s)) % modulus for b in range(s)]
        pairs = {sum(r * x for r, x in zip(row, rep)) % modulus for rep in reps}
        square = sum(r * x for r, x in zip(row, shift))
        for i in range(m):
            total = 0
            for j in range(m):
                if j == i:
                    piece = {l[i][i] * (2 * v + square) % modulus for v in pairs}
                else:
                    piece = {2 * l[i][j] * v % modulus for v in pairs}
                if len(piece) > 1:
                    return True
                total += piece.pop()
            if total % modulus:
                return True
    return False


def reference_signature(a):
    """Signature of a symmetric matrix: #positive minus #negative eigenvalues.

    Computed exactly by Lagrange congruence reduction over the rationals.
    A nonzero diagonal pivot contributes its sign and its row/column are
    eliminated by a rational symmetric row+column operation.  If the whole
    remaining diagonal vanishes but an off-diagonal entry b survives, that
    entry spans a hyperbolic 2x2 block [[0,b],[b,0]] with eigenvalues +-b:
    it contributes 0 and is removed through its exact Schur complement.
    No floating point is involved anywhere.
    """
    from surgeryinv.exactmat import is_symmetric

    if not is_symmetric(a):
        raise ValueError("signature of a non-symmetric matrix")
    m = [[Fraction(x) for x in row] for row in a]
    sig = 0
    while m:
        n = len(m)
        pivot = next((i for i in range(n) if m[i][i] != 0), None)
        if pivot is not None:
            if pivot != 0:
                m[0], m[pivot] = m[pivot], m[0]
                for row in m:
                    row[0], row[pivot] = row[pivot], row[0]
            d = m[0][0]
            sig += 1 if d > 0 else -1
            m = [
                [m[i][j] - m[i][0] * m[0][j] / d for j in range(1, n)]
                for i in range(1, n)
            ]
            continue
        off = next(
            ((i, j) for i in range(n) for j in range(i + 1, n) if m[i][j] != 0),
            None,
        )
        if off is None:
            break  # zero matrix left; contributes nothing
        i0, j0 = off
        order = [i0, j0] + [k for k in range(n) if k not in (i0, j0)]
        m = [[m[i][j] for j in order] for i in order]
        b = m[0][1]
        # Schur complement against the invertible block [[0,b],[b,0]]
        m = [
            [
                m[i][j] - (m[i][0] * m[1][j] + m[i][1] * m[0][j]) / b
                for j in range(2, n)
            ]
            for i in range(2, n)
        ]
    return sig


def rand_unimodular(rng, n, steps=None):
    """Random unimodular matrix: a product of shears and signed swaps."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    if n < 2:
        return tuple(tuple(row) for row in g)
    for _ in range(steps if steps is not None else 3 * n):
        op = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if op == 0:
            c = rng.choice([-2, -1, 1, 2])
            for col in range(n):
                g[i][col] += c * g[j][col]
        elif op == 1:
            g[i], g[j] = g[j], g[i]
        else:
            g[i] = [-x for x in g[i]]
    return tuple(tuple(row) for row in g)


def reference_evenize(l):
    """evenize as the move-by-move reference: every Kirby move goes through
    apply_move, which copies and re-checks the whole matrix."""
    from surgeryinv.surgery import _solve_gf2, apply_move

    n = len(l)
    if all(l[i][i] % 2 == 0 for i in range(n)):
        return l, []

    cur = l
    transcript = []

    def do(*move):
        nonlocal cur
        cur = apply_move(cur, move)
        transcript.append(move)

    rows_mod2 = [sum((l[i][j] & 1) << j for j in range(n)) for i in range(n)]
    subset = _solve_gf2(rows_mod2, [l[i][i] & 1 for i in range(n)])

    pivot = n
    do("1", 1)
    for j in sorted(subset):
        do("2", pivot, j, 1)
    while cur[pivot][pivot] != 1:
        step = -1 if cur[pivot][pivot] > 1 else 1
        do("1", step)
        do("2", pivot, len(cur) - 1, 1)
    for aux in range(pivot + 1, len(cur)):
        if cur[aux][pivot] != 0:
            do("2", aux, pivot, -cur[aux][pivot])
    for j in range(n):
        while cur[j][pivot] != 0:
            do("2", j, pivot, 1 if cur[j][pivot] < 0 else -1)
    do("1inv", pivot)
    return cur, transcript


def reference_root_walk(den, residues, width):
    """A per-phase walk over one root, with four multiplications a product:
    z = e^{2 pi i/den} scaled by 2^width, its z^(2^j) table, and one chain
    of truncated products from each residue of (k, mult) in increasing k
    to the next, every multiplicity applied to its power as the walk goes.
    Returns the unrounded (re, im) integers, scaled by 2^width."""
    from mpmath import mp

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


REFERENCE_ROOT_BITS = 128


def root_groups(s):
    """The roots reference_eval_numeric walks s over: triples (L, residues,
    mults) in increasing residue, the reduced denominators of s merged
    greedily, in increasing order, while their lcm L has at most
    REFERENCE_ROOT_BITS bits; a single root when the lcm of them all fits."""
    dens, groups = sorted({phase.denominator for phase, _ in s.items()}), []
    for d in dens:
        if groups and math.lcm(groups[-1], d).bit_length() <= REFERENCE_ROOT_BITS:
            groups[-1] = math.lcm(groups[-1], d)
        else:
            groups.append(d)
    roots = {den: [] for den in groups}
    for phase, mult in s.items():
        den = next(den for den in groups if den % phase.denominator == 0)
        roots[den].append((phase.numerator * (den // phase.denominator), mult))
    return [(den, [k for k, _ in terms], [m for _, m in terms])
            for den, terms in roots.items()]


def reference_eval_numeric(s, precision):
    """eval_numeric by an independent route: each root of root_groups(s)
    walked by reference_root_walk at slack + 2 bit_length(L) bits, the roots
    summed at the widest of those widths and rounded to precision bits.
    Returns the (re, im) mpf pair."""
    from mpmath import mp

    mults = [m for _, m in s.items()]
    slack = (precision + len(mults).bit_length()
             + sum(abs(m) for m in mults).bit_length() + 8)
    re = im = width = 0
    for den, res, ms in root_groups(s):
        w = slack + 2 * den.bit_length()
        part_re, part_im = reference_root_walk(den, list(zip(res, ms)), w)
        if w > width:
            re, im, width = re << (w - width), im << (w - width), w
        re += part_re << (width - w)
        im += part_im << (width - w)
    with mp.workprec(precision):
        return mp.mpf((re, -width)), mp.mpf((im, -width))


def reference_jordan_summands(s, p, m):
    """gauss._jordan_summands as it split forms before its pivots were
    ranked by gcd: valuations counted in a loop, the pair search made at
    every step, and every row updated through its full factor list.  s is
    overwritten."""
    from surgeryinv.gauss import _valuation

    big = p**m
    live = list(range(len(s)))
    out = []
    while live:
        diag = min(live, key=lambda a: _valuation(s[a][a], p, m))
        vd = _valuation(s[diag][diag], p, m)
        pairs = [(a, b) for i, a in enumerate(live) for b in live[i + 1:]]
        off = min(pairs, key=lambda ab: _valuation(s[ab[0]][ab[1]], p, m), default=None)
        vo = _valuation(s[off[0]][off[1]], p, m) if off else m
        v = min(vd, vo)
        if v >= m:
            break
        if vd == v:
            pivots = (diag,)
        elif p == 2:
            pivots = off
        else:
            a, b = off
            s[a][a] = (s[a][a] + 2 * s[a][b] + s[b][b]) % big
            for c in live:
                if c != a:
                    s[a][c] = s[c][a] = (s[a][c] + s[b][c]) % big
            pivots = (a,)
        q = p**v
        blk = [[s[a][b] // q for b in pivots] for a in pivots]
        if len(pivots) == 1:
            adj, det = ((1,),), blk[0][0]
        else:
            (b00, b01), (_, b11) = blk
            adj, det = ((b11, -b01), (-b01, b00)), b00 * b11 - b01 * b01
        inv = pow(det, -1, big)
        live = [c for c in live if c not in pivots]
        for c in live:
            x = [s[c][a] // q for a in pivots]
            f = [sum(xi * adj[i][j] for i, xi in enumerate(x)) * inv % big
                 for j in range(len(pivots))]
            for d in live:
                s[c][d] = (s[c][d] - sum(fj * s[a][d] for fj, a in zip(f, pivots))) % big
        out.append((v, tuple(s[a][b] for a in pivots for b in pivots)))
    return out


def reference_smith(a, keep_u, keep_v):
    """exactmat._smith as it eliminated before it skipped work: the full
    pivot scan, the divisibility scan under every pivot, and column
    operations applied to every row of the working matrix."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [list(row) for row in a]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)] if keep_u else None
    v = [[int(i == j) for j in range(cols)] for i in range(cols)] if keep_v else None

    def add_row(src, dst, c):
        m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]
        if u is not None:
            u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for r in m:
            r[dst] += c * r[src]
        if v is not None:
            for r in v:
                r[dst] += c * r[src]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        if v is not None:
            for r in v:
                r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(rows, cols):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = m[i][j]
                if x != 0 and (best is None or abs(x) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            p = m[t][t]
            shrunk = False
            for i in range(t + 1, rows):
                if m[i][t] % p != 0:
                    add_row(t, i, -(m[i][t] // p))
                    swap_rows(t, i)
                    shrunk = True
                    break
            if shrunk:
                continue
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    add_row(t, i, -(m[i][t] // p))
            for j in range(t + 1, cols):
                if m[t][j] % p != 0:
                    add_col(t, j, -(m[t][j] // p))
                    swap_cols(t, j)
                    shrunk = True
                    break
            if shrunk:
                continue
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    add_col(t, j, -(m[t][j] // p))
            bad = next(
                (i for i in range(t + 1, rows)
                 for j in range(t + 1, cols) if m[i][j] % p != 0),
                None,
            )
            if bad is None:
                break
            add_row(bad, t, 1)
        t += 1

    for i in range(min(rows, cols)):
        if m[i][i] < 0:
            m[i] = [-x for x in m[i]]
            if u is not None:
                u[i] = [-x for x in u[i]]
    return m, u, v
