"""Seeded inputs for the benchmark workloads.

Each workload function turns a seed into a command list for surgeryinv's
CLI, writes the matrix files those commands read into a work directory,
and returns what the checker needs to know about each command.  The same
seed gives the same files and commands.  Costs are pinned by the workload
design (fixed torsion orders, determinant windows, evenized-size windows),
so that different seeds give different inputs of about the same cost.
"""

import math
import os
import random

from algebra import det, evenized_size, invariant_factors, matmul, transpose


def write_matrix(path, m):
    rows = len(m)
    cols = len(m[0]) if rows else 0
    with open(path, "w") as fh:
        fh.write(f"{rows} {cols}\n")
        fh.writelines(" ".join(map(str, row)) + "\n" for row in m)


def rand_symmetric(rng, n, bound, even=False):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-bound, bound)
        if even:
            m[i][i] = 2 * rng.randint(-bound, bound)
    return m


def rand_unimodular(rng, n, steps):
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        g[i] = [x + c * y for x, y in zip(g[i], g[j])]
    return g


def plumbing_tree(rng, n):
    """Linking matrix of a random plumbing tree, framings -2 ... -6."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = -rng.randint(2, 6)
        if i:
            j = rng.randrange(i)
            m[i][j] = m[j][i] = 1
    return m


def sample(rng, make, accept, tries=100000):
    for _ in range(tries):
        m = make()
        if accept(m):
            return m
    raise RuntimeError("input generator found no matrix in its window")


class RunInputs:
    """Collects commands and input files for one run."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.commands = []  # sent to the worker: argv and outputs to save
        self.checks = []    # kept by the parent: what each output must satisfy
        self.count = 0

    def matrix(self, m):
        self.count += 1
        path = os.path.join(self.workdir, f"m{self.count}.txt")
        write_matrix(path, m)
        return path

    def scratch(self):
        self.count += 1
        return os.path.join(self.workdir, f"m{self.count}.txt")

    def add(self, argv, check, save=None):
        self.commands.append({"argv": argv, "save": save or {}})
        self.checks.append(check)


def _coupling(rng, n):
    return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]


# gauss_enum: (presentation, torsion, coupling size).  "lens" slots use the
# CLI preset lens:p,q with a random unit q; "diag" slots hide diag(d) behind
# a random unimodular congruence, so b1, the torsion group and its linking
# form (1/d on each Z/d) are known.
# Besides the four large cases, a band of 35k-65k-term slots keeps the
# median command latency inside a group of similar commands.
GAUSS_SLOTS = [
    ("lens", (2000,), 2), ("lens", (100,), 3), ("diag", (4, 12, 12), 2),
    ("diag", (0, 10, 30), 2), ("lens", (450,), 2), ("lens", (36,), 3),
    ("diag", (2, 6, 18), 2), ("diag", (0, 0, 3, 15), 3), ("lens", (20,), 4),
    ("diag", (6, 6), 2), ("lens", (250,), 2), ("lens", (220,), 2),
    ("lens", (240,), 2), ("lens", (38,), 3), ("diag", (2, 10, 10), 2),
    ("diag", (3, 3, 21), 2), ("lens", (16,), 4),
]


def gauss_enum(rng, b, slots):
    for kind, ds, n in slots:
        if kind == "lens":
            p = ds[0]
            q = sample(rng, lambda: rng.randrange(1, p), lambda q: math.gcd(p, q) == 1)
            manifold = f"lens:{p},{q}"
            form = [(p, -q % p)]  # the preset's linking form is -q/p
        else:
            g = rand_unimodular(rng, len(ds), 4 * len(ds))
            d = [[ds[i] if i == j else 0 for j in range(len(ds))] for i in range(len(ds))]
            manifold = b.matrix(matmul(transpose(g), matmul(d, g)))
            form = [(x, 1) for x in ds if x >= 2]
        factors = [x for x in ds if x >= 2]
        coupling = _coupling(rng, n)
        b.add(["partition", "--json", "--coupling", b.matrix(coupling), "--manifold", manifold],
              {"kind": "partition", "b1": ds.count(0), "factors": factors,
               "terms": math.prod(factors) ** n, "form": form,
               "k": [[x + y for x, y in zip(row, col)]
                     for row, col in zip(coupling, zip(*coupling))]})


# kernel_kirby: (kind, size, evenized-size window).  The window pins the
# size of the evenized output, the dominant cost of the chain, because the
# pivot framing of the evenization is otherwise a random walk.  Dense
# matrices stop at 10x10: from 11x11 on, the cost of the Smith transforms
# is so heavy-tailed across seeds that the slowest commands, which set
# cmd_tail_ms, vary by more than the bound.
KERNEL_SLOTS = 3 * [
    ("dense", 8, (14, 16)), ("dense", 9, (15, 17)), ("dense", 10, (16, 18)),
    ("dense", 10, (16, 18)), ("tree", 6, (10, 12)), ("tree", 8, (12, 14)),
    ("tree", 10, (14, 16)), ("tree", 12, (16, 18)), ("tree", 12, (16, 18)),
]


def kernel_kirby(rng, b, slots):
    for kind, n, (lo, hi) in slots:
        def make():
            return rand_symmetric(rng, n, 9) if kind == "dense" else plumbing_tree(rng, n)

        m = sample(rng, make, lambda m: det(m) != 0 and lo <= evenized_size(m) <= hi)
        path = b.matrix(m)
        evened = b.scratch()
        check = {"input": m, "det": det(m)}
        b.add(["snf", "--json", path], dict(check, kind="snf"))
        b.add(["homology", "--json", path], dict(check, kind="homology"))
        b.add(["linking-form", "--json", path], dict(check, kind="linking-form"))
        b.add(["evenize", "--json", path], dict(check, kind="evenize"), save={"matrix": evened})
        b.add(["homology", "--json", evened], dict(check, kind="homology-evenized"))


# reciprocity_dual: (m, n, |det K| window, |det L| window) with L m x m and
# K n x n even.  The left side costs |det K|^m terms, the right side
# |det L|^n; narrow windows pin both.  Five of the eight slots differ by
# 10x or more, three by 100x or more.
RECIPROCITY_SLOTS = [
    (4, 2, (3, 5), (400, 420)), (1, 4, (10000, 11000), (3, 5)),
    (2, 2, (140, 150), (140, 150)), (3, 1, (4, 8), (8000, 9000)),
    (1, 1, (2000, 2200), (2000, 2200)), (2, 3, (50, 60), (6, 10)),
    (3, 2, (36, 38), (6, 10)), (2, 1, (250, 265), (5, 9)),
]


def _is_prime(n):
    return n > 1 and all(n % p for p in range(2, math.isqrt(n) + 1))


def _even_cyclic(rng, size, window):
    """Even symmetric matrix with |det| in the window and a cyclic cokernel
    of order p (even size) or 2p (odd size, whose determinant is even).

    The group's arithmetic sets the number of distinct phases, and with it
    the cost of building and reading out the sums, so it is pinned along
    with the term count.
    """
    lo, hi = window
    bound = max(1, round(hi ** (1 / size)))

    def accept(m):
        d = abs(det(m))
        order = d if size % 2 == 0 else d // 2 if d % 2 == 0 else 0
        return lo <= d <= hi and _is_prime(order) and len(invariant_factors(m)) == 1

    return sample(rng, lambda: rand_symmetric(rng, size, bound, even=True), accept)


def reciprocity_dual(rng, b, slots):
    for m, n, k_window, l_window in slots:
        l = _even_cyclic(rng, m, l_window)
        k = _even_cyclic(rng, n, k_window)
        lp, kp = b.matrix(l), b.matrix(k)
        dual_c, dual_l = b.scratch(), b.scratch()
        pair = {"l": l, "k": k}
        b.add(["reciprocity", "--json", "--precision", "256", "--l", lp, "--k", kp],
              dict(pair, kind="reciprocity"))
        b.add(["dual", "--json", "--l", lp, "--k", kp], dict(pair, kind="dual"),
              save={"dual_coupling": dual_c, "dual_linking": dual_l})
        b.add(["partition", "--json", "--coupling", dual_c, "--manifold", dual_l],
              dict(pair, kind="partition-dual"))


WORKLOADS = {
    "gauss_enum": gauss_enum,
    "kernel_kirby": kernel_kirby,
    "reciprocity_dual": reciprocity_dual,
}
SLOTS = {
    "gauss_enum": GAUSS_SLOTS,
    "kernel_kirby": KERNEL_SLOTS,
    "reciprocity_dual": RECIPROCITY_SLOTS,
}
# Untraced passes a run makes at least (traced runs make one more).  They
# fix the tail percentile: ten samples lie beyond it in a run of this many
# passes, so the tail stays on the same commands however many passes fit.
# A reciprocity_dual pass takes about 2.5 s and its three slowest commands
# are close in cost, so ten passes put the tail among them; gauss_enum
# (about 8 s a pass) and kernel_kirby put it at the fourth slowest command
# of a pass.
MIN_PASSES = {"gauss_enum": 3, "kernel_kirby": 3, "reciprocity_dual": 10}
# Every pass of every workload ends with one tiny slot of each workload, a
# few milliseconds in all, so that each layer does some measured work on
# each workload and no layer's self time is a constant zero.
CANARY = {
    "gauss_enum": [("lens", (7,), 2)],
    "kernel_kirby": [("dense", 4, (5, 8))],
    "reciprocity_dual": [(2, 1, (4, 8), (3, 8))],
}

# Tiny inputs run once before timing, so that lazy set-up in the program
# (caches, first use of each code path) is paid in setup_s.
WARMUP = {
    "gauss_enum": lambda b: [["partition", "--json", "--coupling", b.matrix([[1, 1], [0, 1]]),
                              "--manifold", "lens:5,2"]],
    "kernel_kirby": lambda b: [[c, "--json", b.matrix([[3, 1], [1, 2]])]
                               for c in ("snf", "homology", "linking-form", "evenize")],
    "reciprocity_dual": lambda b: [["reciprocity", "--json", "--precision", "256",
                                    "--l", b.matrix([[2]]), "--k", b.matrix([[4, 1], [1, 2]])]],
}


def build(workload, seed, workdir):
    """Generate one run's inputs: (commands, checks, warmup argvs, properties)."""
    rng = random.Random(f"{workload}:{seed}")
    b = RunInputs(workdir)
    WORKLOADS[workload](rng, b, SLOTS[workload])
    props = properties(workload, b.checks)
    props["canary_commands"] = -len(b.commands)
    for name, slots in CANARY.items():
        WORKLOADS[name](rng, b, slots)
    props["canary_commands"] += len(b.commands)
    return b.commands, b.checks, WARMUP[workload](b), props


def properties(workload, checks):
    """Input properties a later change can cite (sizes, orders, term counts)."""
    if workload == "gauss_enum":
        cyclic = sum(len(c["factors"]) == 1 for c in checks)
        return {"partitions": len(checks), "terms": [c["terms"] for c in checks],
                "torsion": [c["factors"] for c in checks],
                "b1_positive": sum(c["b1"] > 0 for c in checks),
                "cyclic_torsion_share": cyclic / len(checks)}
    if workload == "kernel_kirby":
        inputs = [c for c in checks if c["kind"] == "snf"]
        return {"matrices": len(inputs), "sizes": [len(c["input"]) for c in inputs],
                "torsion_orders": [abs(c["det"]) for c in inputs],
                "evenized_sizes": [evenized_size(c["input"]) for c in inputs]}
    pairs = [c for c in checks if c["kind"] == "reciprocity"]
    sides = [(abs(det(c["k"])) ** len(c["l"]), abs(det(c["l"])) ** len(c["k"])) for c in pairs]
    return {"pairs": len(pairs), "sizes_mn": [[len(c["l"]), len(c["k"])] for c in pairs],
            "terms_lhs_rhs": [list(s) for s in sides],
            "cheaper_side_10x_share": sum(max(s) >= 10 * min(s) for s in sides) / len(sides),
            "cheaper_side_100x_share": sum(max(s) >= 100 * min(s) for s in sides) / len(sides)}
