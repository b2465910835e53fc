"""Reference integer algebra for the benchmark, independent of surgeryinv.

The benchmark checks the program's outputs against these routines, so they
share no code with the package under test and use different algorithms
where that is cheap: invariant factors are computed modulo the determinant,
signatures from the characteristic polynomial by Descartes' rule of signs,
partition phase lists by splitting the torsion form into prime-power
summands and convolving their phase counts.
"""

import itertools
import math
from fractions import Fraction


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def det(a):
    """Determinant by fraction-free Bareiss elimination; det of 0x0 is 1."""
    n = len(a)
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def _xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) = x a + y b, and (x, y) = (1, 0) when a | b."""
    if a and b % a == 0:
        return a, 1, 0
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def invariant_factors(a):
    """Invariant factors >= 2 of Z^n / a Z^n for a nonsingular integer a.

    |det a| Z^n lies in a Z^n, so every entry may be reduced modulo
    D = |det a| and the cokernel is that of the reduced matrix plus D Z^n.
    Diagonalize with unimodular 2x2 gcd steps, read the cyclic orders
    gcd(d_i, D), then sort them into a divisibility chain.
    """
    big_d = abs(det(a))
    if big_d == 0:
        raise ValueError("matrix is singular")
    n = len(a)
    m = [[x % big_d for x in row] for row in a]
    for t in range(n):
        while True:
            for i in range(t + 1, n):
                if m[i][t]:
                    g, x, y = _xgcd(m[t][t], m[i][t])
                    p, q = m[t][t] // g, m[i][t] // g
                    rt, ri = m[t], m[i]
                    m[t] = [(x * u + y * v) % big_d for u, v in zip(rt, ri)]
                    m[i] = [(p * v - q * u) % big_d for u, v in zip(rt, ri)]
            if not any(m[t][j] for j in range(t + 1, n)):
                break
            for j in range(t + 1, n):
                if m[t][j]:
                    g, x, y = _xgcd(m[t][t], m[t][j])
                    p, q = m[t][t] // g, m[t][j] // g
                    for row in m:
                        u, v = row[t], row[j]
                        row[t], row[j] = (x * u + y * v) % big_d, (p * v - q * u) % big_d
            if not any(m[i][t] for i in range(t + 1, n)):
                break
    orders = [math.gcd(m[i][i], big_d) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g = math.gcd(orders[i], orders[j])
            orders[i], orders[j] = g, orders[i] * orders[j] // g
    return [d for d in orders if d >= 2]


def charpoly(a):
    """Coefficients c_0..c_n of det(x I - a), c_n = 1 (Faddeev-LeVerrier)."""
    n = len(a)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += coeffs[n - k + 1]
        am = matmul(a, m)
        m = am
        coeffs[n - k] = -sum(am[i][i] for i in range(n)) / k
    return coeffs


def signature(a):
    """#positive minus #negative eigenvalues of a symmetric integer matrix.

    All roots of the characteristic polynomial are real, so Descartes'
    rule of signs counts the positive and the negative ones exactly.
    """
    coeffs = charpoly(a)

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c != 0]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    positive = sign_changes(coeffs)
    negative = sign_changes([c if k % 2 == 0 else -c for k, c in enumerate(coeffs)])
    return positive - negative


def solve(a, b):
    """Exact solution x of a x = b over Q; a nonsingular, b a list of columns."""
    n = len(a)
    rows = [[Fraction(x) for x in a[i]] + [Fraction(col[i]) for col in b]
            for i in range(n)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if rows[i][k] != 0)
        rows[k], rows[pivot] = rows[pivot], rows[k]
        inv = 1 / rows[k][k]
        rows[k] = [x * inv for x in rows[k]]
        for i in range(n):
            if i != k and rows[i][k] != 0:
                f = rows[i][k]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return [[rows[i][n + c] for i in range(n)] for c in range(len(b))]


def characteristic_subset(a):
    """Solution x of (a mod 2) x = diag(a) mod 2 over GF(2), free variables 0."""
    n = len(a)
    aug = [sum((a[i][j] & 1) << j for j in range(n)) | ((a[i][i] & 1) << n)
           for i in range(n)]
    pivots = []
    r = 0
    for col in range(n):
        row = next((i for i in range(r, n) if (aug[i] >> col) & 1), None)
        if row is None:
            continue
        aug[r], aug[row] = aug[row], aug[r]
        for i in range(n):
            if i != r and (aug[i] >> col) & 1:
                aug[i] ^= aug[r]
        pivots.append(col)
        r += 1
    return [pivots[i] for i in range(r) if (aug[i] >> n) & 1]


def evenized_size(a):
    """Components after making every framing even through a +1 pivot.

    Bordering with a +1 pivot and sliding it over the characteristic
    subset S leaves it with framing 1 + chi_S' a chi_S; every unit of
    distance from 1 costs one auxiliary component.  This predicts the
    output size of any evenization that follows that recipe.
    """
    if all(a[i][i] % 2 == 0 for i in range(len(a))):
        return len(a)
    s = characteristic_subset(a)
    return len(a) + abs(sum(a[i][j] for i in s for j in s))


def apply_move(m, move):
    """Apply one transcript line ("1 +1", "1inv 3", "2 4 1 -1"; 1-based)."""
    kind, *rest = move.split()
    n = len(m)
    if kind == "1":
        return [row + [0] for row in m] + [[0] * n + [int(rest[0])]]
    if kind == "1inv":
        k = int(rest[0]) - 1
        if abs(m[k][k]) != 1 or any(m[k][j] for j in range(n) if j != k):
            raise ValueError(f"move {move!r}: component is not an isolated +-1")
        return [[m[i][j] for j in range(n) if j != k] for i in range(n) if i != k]
    if kind == "2":
        i0, j0, s = int(rest[0]) - 1, int(rest[1]) - 1, int(rest[2])
        out = [list(row) for row in m]
        for j in range(n):
            out[i0][j] += s * m[j0][j]
        for i in range(n):
            out[i][i0] += s * m[i][j0]
        out[i0][i0] = m[i0][i0] + m[j0][j0] + 2 * s * m[i0][j0]
        return out
    raise ValueError(f"unknown move {move!r}")


def cyclic_form(a):
    """(d, c) for a nonsingular a whose cokernel Z^n / a Z^n is cyclic of
    order d: some class x generates it and x' a^-1 x = c/d mod 1."""
    n = len(a)
    d = abs(det(a))
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    pairs = [[x + s * y for x, y in zip(units[i], units[j])]
             for i, j in itertools.combinations(range(n), 2) for s in (1, -1)]
    for x in units + pairs:
        y = solve(a, [x])[0]
        if math.lcm(*(v.denominator for v in y)) == d:
            value = sum(p * q for p, q in zip(x, y))
            return d, int(value * d) % d
    raise ValueError("no generator among the unit vectors and their sums")


def _prime_powers(d):
    out, p = [], 2
    while p * p <= d:
        q = 1
        while d % p == 0:
            d //= p
            q *= p
        if q > 1:
            out.append(q)
        p += 1
    return out + [d] if d > 1 else out


def partition_phases(form, k):
    """Phases of sum over u in T^n of e(-u' (k x Q) u / 2), as {phase: count}.

    form lists the torsion group's cyclic summands as (d, c): Z/d with
    linking form c/d on a generator.  k is even symmetric n x n.  Each
    summand splits by the Chinese remainder theorem into orthogonal
    prime-power summands Z/q with form c (d/q)/q, the sum factorizes over
    them, and its phase counts are the convolution of theirs, each found
    by enumerating (Z/q)^n.
    """
    n = len(k)
    pairs = [(k[i][i] // 2 if i == j else k[i][j], i, j)
             for i in range(n) for j in range(i, n) if k[i][j]]
    total = {Fraction(0): 1}
    for d, c in form:
        for q in _prime_powers(d):
            w = c * (d // q) % q
            counts = {}
            for u in itertools.product(range(q), repeat=n):
                r = -w * sum(x * u[i] * u[j] for x, i, j in pairs) % q
                counts[r] = counts.get(r, 0) + 1
            step = {}
            for p, m in total.items():
                for r, m2 in counts.items():
                    key = (p + Fraction(r, q)) % 1
                    step[key] = step.get(key, 0) + m * m2
            total = step
    return total
