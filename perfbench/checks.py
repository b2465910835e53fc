"""Output checks for the benchmark.

Canonical outputs (b1, torsion factors, determinants, signatures, partition
phase lists, the dual data) are compared exactly: against the digests
recorded from the seed commit when the run's seed has one, and always
against values known by construction or computed by algebra.py (partition
phase lists included).
Non-canonical outputs (Smith transforms, linking-form generators, evenize
transcripts, numeric readouts) are checked by certificate.
"""

import cmath
import hashlib
import json
import math
from fractions import Fraction

from algebra import (apply_move, cyclic_form, det, invariant_factors, matmul,
                     partition_phases, signature, solve)


class CheckError(Exception):
    """An output failed its check."""


def require(cond, what):
    if not cond:
        raise CheckError(what)


CANONICAL = {
    "snf": ("d", "invariant_factors"),
    "homology": ("b1", "torsion", "h"),
    "homology-evenized": ("b1", "torsion", "h"),
    "linking-form": ("t", "factors"),
    "evenize": (),
    "partition": ("phases", "metadata.b1", "metadata.invariant_factors"),
    "partition-dual": ("phases", "metadata.b1", "metadata.invariant_factors"),
    "reciprocity": ("det_k0", "det_l0", "sigma_k", "sigma_l", "sizes", "l_even"),
    "dual": ("dual_linking", "dual_coupling"),
}


def _field(doc, dotted):
    for key in dotted.split("."):
        doc = doc[key]
    return doc


def digest(kind, doc):
    """Short hash of a document's canonical fields."""
    canon = {f: _field(doc, f) for f in CANONICAL[kind]}
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()[:16]


def _torsion_group(factors):
    return " + ".join(f"Z_{p}" for p in factors) or "0"


def check_homology(doc, c):
    factors = invariant_factors(c["input"])
    require(doc["b1"] == 0 and doc["torsion"] == factors, "homology differs from reference")
    require(doc["h"] == ["Z", _torsion_group(factors), "0", "Z"], "homology list is wrong")


def check_snf(doc, c):
    a = c["input"]
    u, d, v = doc["u"], doc["d"], doc["v"]
    require(doc["input"] == a, "snf echoes a different input")
    require(matmul(matmul(u, a), v) == d, "u a v != d")
    require(abs(det(u)) == 1 and abs(det(v)) == 1, "snf transform is not unimodular")
    n = len(a)
    diag = [d[i][i] for i in range(n)]
    require(all(d[i][j] == 0 for i in range(n) for j in range(n) if i != j), "d is not diagonal")
    require(all(x > 0 for x in diag) and all(y % x == 0 for x, y in zip(diag, diag[1:])),
            "d is not a divisibility chain")
    require([x for x in diag if x >= 2] == invariant_factors(a), "invariant factors are wrong")
    require(doc["invariant_factors"] == diag, "invariant_factors disagrees with d")


def check_linking_form(doc, c):
    a = c["input"]
    factors = doc["factors"]
    require(factors == invariant_factors(a), "linking-form factors are wrong")
    require(math.prod(factors) == abs(c["det"]), "form order != |det L0|")
    q = [[Fraction(x) for x in row] for row in doc["q_mod1"]]
    t = len(factors)
    require(doc["t"] == t and len(q) == t, "form has the wrong rank")
    for i in range(t):
        for j in range(t):
            require(0 <= q[i][j] < 1 and q[i][j] == q[j][i], "form not symmetric in [0,1)")
            require((factors[i] * q[i][j]).denominator == 1, "form not defined on the group")
    gens = doc["generators"]
    cols = solve(a, gens)  # L^-1 g_k
    for i in range(t):
        for j in range(t):
            value = sum(x * y for x, y in zip(gens[i], cols[j]))
            require((value - q[i][j]).denominator == 1, "form != g' L^-1 g mod 1")


def check_evenize(doc, c):
    m = [list(row) for row in c["input"]]
    for move in doc["transcript"]:
        m = apply_move(m, move)
    require(m == doc["matrix"], "replaying the transcript does not give the output")
    require(all(m[i][i] % 2 == 0 for i in range(len(m))), "output has an odd framing")


def _value(doc):
    return complex(float(doc["value"]["re"]), float(doc["value"]["im"]))


def _check_phases(doc, reference):
    phases = {Fraction(p): mult for p, mult in doc["phases"]}
    require(len(phases) == len(doc["phases"]) and phases == reference,
            "phases differ from the reference sum")
    z = sum(mult * cmath.exp(2j * math.pi * p) for p, mult in phases.items())
    require(abs(z - _value(doc)) <= 1e-10 * sum(reference.values()),
            "value does not match the phases")


def check_partition(doc, c):
    meta = doc["metadata"]
    require(meta["b1"] == c["b1"] and meta["invariant_factors"] == c["factors"],
            "manifold invariants differ from construction")
    _check_phases(doc, partition_phases(c["form"], c["k"]))


def _chat(m):
    n = len(m)
    return [[m[i][j] if i < j else (m[i][i] // 2 if i == j else 0) for j in range(n)]
            for i in range(n)]


def check_dual(doc, c):
    require(doc["dual_linking"] == c["k"], "dual linking matrix != k")
    require(doc["dual_coupling"] == _chat([[-x for x in row] for row in c["l"]]),
            "dual coupling != upper half of -l")


def check_partition_dual(doc, c):
    factors = invariant_factors(c["k"])
    meta = doc["metadata"]
    require(meta["b1"] == 0 and meta["invariant_factors"] == factors, "dual torsion is wrong")
    # the dual coupling is the upper half of -l, so its even matrix is -l
    minus_l = [[-x for x in row] for row in c["l"]]
    _check_phases(doc, partition_phases([cyclic_form(c["k"])], minus_l))


def check_reciprocity(doc, c):
    l, k = c["l"], c["k"]
    m, n = len(l), len(k)
    require(doc["det_l0"] == det(l) and doc["det_k0"] == det(k), "determinants are wrong")
    require(doc["sigma_l"] == signature(l) and doc["sigma_k"] == signature(k),
            "signatures are wrong")
    require(doc["sizes"] == {"m": m, "n": n, "r": m, "s": n} and doc["l_even"],
            "sizes are wrong")
    bound = Fraction(1, 2 ** (doc["precision"] // 2))
    lhs = [Fraction(doc["lhs"][x]) for x in ("re", "im")]
    rhs = [Fraction(doc["rhs"][x]) for x in ("re", "im")]
    diff2 = (lhs[0] - rhs[0]) ** 2 + (lhs[1] - rhs[1]) ** 2
    require(diff2 <= bound ** 2 and Fraction(doc["abs_diff"]) <= bound,
            "|lhs - rhs| exceeds the precision bound")


CHECKS = {
    "snf": check_snf,
    "homology": check_homology,
    "homology-evenized": check_homology,
    "linking-form": check_linking_form,
    "evenize": check_evenize,
    "partition": check_partition,
    "partition-dual": check_partition_dual,
    "reciprocity": check_reciprocity,
    "dual": check_dual,
}


def _check_dual_modulus(docs, checks, failures):
    """The dual theory's partition function is, up to conjugation, the left
    Gauss sum of the reciprocity identity, so their moduli must agree."""
    for i, c in enumerate(checks):
        if c["kind"] != "partition-dual" or docs[i] is None or docs[i - 2] is None:
            continue
        lhs = abs(complex(float(docs[i - 2]["lhs"]["re"]), float(docs[i - 2]["lhs"]["im"])))
        scale = abs(det(c["k"])) ** (len(c["l"]) / 2)
        if not math.isclose(abs(_value(docs[i])), lhs * scale, rel_tol=1e-9, abs_tol=1e-9):
            failures[i] = "dual partition function and reciprocity lhs differ in modulus"


def check_outputs(outputs, checks, recorded=None):
    """Check the first pass's outputs; returns (digests, failures by index).

    outputs holds (exit code, stdout text) per command; recorded is the
    digest list from the seed commit for this workload and seed, if any.
    """
    failures = {}
    docs = [None] * len(outputs)
    digests = [None] * len(outputs)
    for i, ((rc, text), c) in enumerate(zip(outputs, checks)):
        try:
            require(rc == 0, f"exit code {rc}")
            doc = json.loads(text)
            CHECKS[c["kind"]](doc, c)
            digests[i] = digest(c["kind"], doc)
            require(recorded is None or digests[i] == recorded[i],
                    "canonical output differs from the seed commit")
            docs[i] = doc
        except (CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
            failures[i] = f"command {i} ({c['kind']}): {exc}"
    _check_dual_modulus(docs, checks, failures)
    return digests, failures
