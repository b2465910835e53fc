"""Shared random-input generators and brute-force oracles for the tests.

Everything takes an explicit random.Random so that every test is seeded
and reproducible.
"""

import itertools


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


def brute_radical_terms(k, form):
    """Radical of B(u,v) = t(u)(K x Q)v mod 1 on the torsion power, and the
    partition phases on it, both by exhaustive enumeration."""
    from surgeryinv.gauss import phase_mod1, quadratic_phase

    n = len(k)
    t = form.rank
    elements = list(itertools.product(*(range(p) for p in form.factors)))
    total = len(elements) ** n

    def in_radical(z):
        flat = [x for block in z for x in block]
        for i in range(n):
            for a in range(t):
                val = sum(
                    k[i][j] * form.q[a][b] * flat[j * t + b]
                    for j in range(n) for b in range(t)
                )
                if phase_mod1(val) != 0:
                    return False
        return True

    phases = []
    for z in itertools.product(elements, repeat=n):
        if in_radical(z):
            flat = tuple(x for block in z for x in block)
            phases.append(quadratic_phase(k, form, flat))
    return total, phases


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
    """gauss._root_walk as the four-multiplication reference: the same root,
    the same z^(2^j) table and the same chain of truncated products, with
    every multiplicity applied to its power as the walk goes."""
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


def reference_eval_numeric(s, precision):
    """gauss.eval_numeric with every group's residues sorted here and read
    out by reference_root_walk: the (re, im) mpf pair."""
    from mpmath import mp

    from surgeryinv.gauss import _root_groups

    mults = s._mults
    slack = (precision + len(mults).bit_length()
             + sum(abs(m) for m in mults.values()).bit_length() + 8)
    re = im = width = 0
    for den, res in _root_groups(s):
        w = slack + 2 * den.bit_length()
        part_re, part_im = reference_root_walk(den, sorted(res), w)
        if w > width:
            re, im, width = re << (w - width), im << (w - width), w
        re += part_re << (width - w)
        im += part_im << (width - w)
    with mp.workprec(precision):
        return mp.mpf((re, -width)), mp.mpf((im, -width))
