"""Command line front end: surgeryinv <command> [options].

Matrix files are plain text: a header line "rows cols", then that many
rows of whitespace-separated integers.  Lines starting with '#' and blank
lines are ignored.  Output documents are deterministic: the same inputs
and flags produce byte-identical text, with exact rationals rendered as
"num/den" strings and numeric values as fixed-precision decimal strings.

A manifold argument (positional, --preset or --manifold) is a matrix file
if that path exists and a preset otherwise.  A lens:p,q preset always means
the pinned presentation of L(p, q): linking form -q/p, no generators printed.
A wrong preset name or parameter count is a parse error.

Exit codes: 0 success, 2 parse error, 3 precondition violation, 4 term
budget exceeded.

The kernel commands (snf, homology, linking-form, kirby, evenize) load
only the exact kernel.  partition and reciprocity import the Gauss-sum
engine, and mpmath to print the values they round; dual imports the
engine through the reciprocity module, reads no value and loads no
mpmath.
partition prints the closed form that its one engine pass carries on the
sum, next to the sum's phases.
"""

import argparse
import functools
import json
import os
import sys
from math import gcd

from .exactmat import DEFAULT_TERM_BUDGET, BudgetExceededError, smith_normal_form
from .homology import (
    full_homology,
    lens_presentation,
    linking_form_with_generators,
    presentation,
)
from .surgery import apply_move, evenize, preset

BUDGET_ENV = "SURGERYINV_BUDGET"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4


class MatrixParseError(ValueError):
    """A matrix file or preset string failed to parse."""


class UsageError(ValueError):
    """An environment variable holds a value its option would refuse."""


def parse_matrix(text):
    """Parse the matrix file format; inverse of format_matrix."""
    lines = [
        line for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise MatrixParseError("empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise MatrixParseError("header must be two integers: rows cols")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise MatrixParseError("header must be two integers: rows cols") from None
    if rows < 0 or cols < 0:
        raise MatrixParseError("negative dimensions")
    if (rows == 0) != (cols == 0):
        raise MatrixParseError(f"header {rows} {cols} has one dimension 0 (the empty matrix is 0 0)")
    if len(lines) - 1 != rows:
        raise MatrixParseError(f"expected {rows} rows, found {len(lines) - 1}")
    out = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != cols:
            raise MatrixParseError(f"expected {cols} entries per row")
        try:
            out.append(tuple(map(int, parts)))
        except ValueError:
            raise MatrixParseError(f"non-integer entry in row: {line!r}") from None
    return tuple(out)


def format_matrix(m):
    rows = len(m)
    cols = len(m[0]) if rows else 0
    lines = [f"{rows} {cols}"]
    lines.extend(" ".join(str(x) for x in row) for row in m)
    return "\n".join(lines) + "\n"


def load_matrix(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise MatrixParseError(f"cannot read {path}: {exc}") from None
    return parse_matrix(text)


def parse_preset(spec):
    """Parse 'unknot:f', 'hopf:f1,f2', 'borromean' or 'lens:p,q' to (name, params)."""
    name, _, raw = spec.partition(":")
    try:
        params = tuple(int(x) for x in raw.split(",")) if raw else ()
    except ValueError:
        raise MatrixParseError(f"bad preset parameters in {spec!r}") from None
    if name not in ("lens", "unknot", "hopf", "borromean"):
        raise MatrixParseError(f"unknown preset {spec!r}")
    if name == "lens" and len(params) != 2:
        raise MatrixParseError("lens preset takes two parameters: lens:p,q")
    return name, params


def load_manifold(spec):
    """The one resolver of a manifold argument (see the module docstring):
    (linking matrix, pinned lens presentation or None)."""
    if os.path.exists(spec):
        return load_matrix(spec), None
    name, params = parse_preset(spec)
    if name == "lens":
        lens = lens_presentation(*params)
        return lens.matrix, lens
    try:
        return preset(name, params), None
    except ValueError as exc:  # the wrong number of parameters
        raise MatrixParseError(str(exc)) from None


def _matrix_or_preset(args):
    """The manifold argument of homology and linking-form."""
    if bool(args.matrix) == bool(args.preset):
        raise MatrixParseError("give exactly one of a matrix file or --preset")
    return load_manifold(args.preset or args.matrix)


def _decimal_places(precision):
    return max(int(precision * 0.30103) + 2, 17)


def _num_str(x, precision):
    """x, an mpf or a pair (man, exp) standing for man 2^exp, rounded to
    `precision` bits and printed as mp.nstr(+x, _decimal_places(precision))
    prints it under mp.workprec(precision): by the same mpmath.libmp calls,
    with no mpf object and no context switch."""
    from mpmath.libmp import from_man_exp, mpf_pos, round_nearest, to_str

    if isinstance(x, tuple):
        x = from_man_exp(*x, precision, round_nearest)
    else:
        x = mpf_pos(x._mpf_, precision, round_nearest)
    return to_str(x, _decimal_places(precision))


def _value_doc(re, im, precision):
    return {"re": _num_str(re, precision), "im": _num_str(im, precision)}


class _PhaseList:
    """The phases of a CyclotomicSum as the JSON list [["num/den", m], ...]
    in increasing phase, lowest terms: _dumps writes it straight from the
    sum's integer keys over its modulus."""

    __slots__ = ("counts", "modulus")

    def __init__(self, counts, modulus):
        self.counts, self.modulus = counts, modulus


def _phases_doc(s):
    return _PhaseList(s._counts, s._modulus)


_encode_str = json.encoder.encode_basestring_ascii


def _dumps(o, newline="\n"):
    """Exactly json.dumps(o, indent=2, sort_keys=True) for the documents
    the commands build (dicts with str keys, lists, str, int, bool, None,
    and _phases_doc's phase lists, written as ["num/den", m] lists).

    Three shapes take one pass and no call per item: a list or tuple of
    plain ints is one join; a matrix, a list or tuple of non-empty rows of
    plain ints, is one join per row; a phase list is one f-string per
    phase, each key k reduced over the modulus M by one gcd(k, M), at the
    indent where the list sits.  With an indent, json falls back to its
    pure-Python encoder, which is slower than these joins and leaves
    reference cycles behind."""
    if type(o) is str:
        return _encode_str(o)
    if type(o) is int:
        return int.__repr__(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    inner = newline + "  "
    sep = "," + inner
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [_encode_str(k) + ": " + _dumps(o[k], inner) for k in sorted(o)]
        return "{" + inner + sep.join(items) + newline + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        types = set(map(type, o))
        if types == {int}:
            return "[" + inner + sep.join(map(int.__repr__, o)) + newline + "]"
        if types <= {list, tuple} and all(set(map(type, row)) == {int} for row in o):
            deeper = inner + "  "
            row_sep = "," + deeper
            rows = ["[" + deeper + row_sep.join(map(int.__repr__, row)) + inner + "]"
                    for row in o]
            return "[" + inner + sep.join(rows) + newline + "]"
        return "[" + inner + sep.join([_dumps(x, inner) for x in o]) + newline + "]"
    if type(o) is _PhaseList:
        m, counts = o.modulus, o.counts
        if not counts:
            return "[]"
        deeper = inner + "  "
        items = [f'[{deeper}"{k // g}/{m // g}",{deeper}{counts[k]}{inner}]'
                 for k in sorted(counts) for g in (gcd(k, m),)]
        return "[" + inner + sep.join(items) + newline + "]"
    return json.dumps(o)


def _emit(doc, text_lines, args):
    """Print doc under --json, else the lines text_lines() returns: a
    command's text-mode lines are built only when they are printed."""
    if args.json:
        print(_dumps(doc))
    else:
        for line in text_lines():
            print(line)


def _int_at_least(low):
    """An argparse type: an int no smaller than low."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value
    return parse


_precision_bits = _int_at_least(1)
_term_budget = _int_at_least(0)


def _budget(args):
    if args.budget is not None:
        return args.budget
    env = os.environ.get(BUDGET_ENV)
    if not env:
        return DEFAULT_TERM_BUDGET
    try:
        return _term_budget(env)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"${BUDGET_ENV}: {exc}") from None


def cmd_snf(args):
    m = load_matrix(args.matrix)
    snf = smith_normal_form(m)
    factors = snf.invariant_factors()
    doc = {
        "command": "snf",
        "input": m,
        "u": snf.u,
        "d": snf.d,
        "v": snf.v,
        "invariant_factors": factors,
    }
    _emit(doc, lambda: [
        "# u", format_matrix(snf.u).rstrip(), "# d", format_matrix(snf.d).rstrip(),
        "# v", format_matrix(snf.v).rstrip(),
        "# invariant factors: " + " ".join(map(str, factors)),
    ], args)
    return EXIT_OK


def cmd_homology(args):
    matrix, lens = _matrix_or_preset(args)
    h = lens.homology if lens else full_homology(matrix)
    doc = {
        "command": "homology",
        "input": matrix,
        "b1": h.b1,
        "torsion": h.torsion.factors,
        "h": [str(h.h0), str(h.h1), str(h.h2), str(h.h3)],
    }
    _emit(doc, lambda: [
        f"b1 = {h.b1}",
        "torsion = " + (" ".join(map(str, h.torsion.factors)) or "(trivial)"),
        f"h0 = {h.h0}", f"h1 = {h.h1}", f"h2 = {h.h2}", f"h3 = {h.h3}",
    ], args)
    return EXIT_OK


def cmd_linking_form(args):
    matrix, lens = _matrix_or_preset(args)
    form, gens = (lens.form, None) if lens else linking_form_with_generators(matrix)
    # the "num/den" strings of form.q_mod1(), with no Fraction made
    m = form.modulus
    q_entries = [[f"{k // g}/{m // g}" for k in (x % m for x in row)
                  for g in (gcd(k, m),)] for row in form.gram]
    doc = {
        "command": "linking-form",
        "input": matrix,
        "t": form.rank,
        "factors": form.factors,
        "q_mod1": q_entries,
        "generators": gens,
    }

    def text_lines():
        lines = [f"t = {form.rank}",
                 "factors = " + (" ".join(map(str, form.factors)) or "(trivial)")]
        if gens is not None:
            for i, g in enumerate(gens):
                lines.append(f"generator {i + 1}: " + " ".join(map(str, g)))
        for row in q_entries:
            lines.append("q: " + " ".join(row))
        return lines

    _emit(doc, text_lines, args)
    return EXIT_OK


def cmd_partition(args):
    from .gauss import partition_function

    c = load_matrix(args.coupling)
    matrix, lens = load_manifold(args.manifold)
    man = lens or presentation(matrix)
    z = partition_function(c, man, budget=_budget(args))
    # the phase list is the histogram; the value is the closed form that
    # the same engine pass carries on the sum
    n = len(c)
    doc = {
        "command": "partition",
        "coupling": c,
        "manifold": man.matrix,
        "phases": _phases_doc(z),
        "value": _value_doc(*z._value.rounded(args.precision), args.precision),
        "metadata": {
            "b1": man.b1,
            "invariant_factors": man.torsion.factors,
            "term_count": man.form.order**n if n else 1,
            "precision": args.precision,
            "normalization_caveat": man.b1 > 0,
        },
    }

    def text_lines():
        lines = [
            "phases (num/den multiplicity):",
            *[f"  {num}/{den} {m}" for num, den, m in z._reduced_items()],
            f"value = {doc['value']['re']} + {doc['value']['im']} i",
        ]
        if man.b1 > 0:
            lines.append("# note: b1 > 0, free sector absorbed into normalization")
        return lines

    _emit(doc, text_lines, args)
    return EXIT_OK


def cmd_reciprocity(args):
    from .reciprocity import reciprocity_sides

    l = load_matrix(args.l)
    k = load_matrix(args.k)
    report = reciprocity_sides(l, k, precision=args.precision,
                               budget=_budget(args))
    doc = {
        "command": "reciprocity",
        "l": l,
        "k": k,
        "lhs": _value_doc(*report.lhs),
        "rhs": _value_doc(*report.rhs),
        "abs_diff": _num_str(report.abs_diff, report.precision),
        "sigma_k": report.sigma_k,
        "sigma_l": report.sigma_l,
        "det_k0": report.det_k0,
        "det_l0": report.det_l0,
        "sizes": {"m": report.m, "n": report.n, "r": report.r, "s": report.s},
        "l_even": report.l_even,
        "precision": report.precision,
    }

    def text_lines():
        lines = [
            f"lhs = {doc['lhs']['re']} + {doc['lhs']['im']} i",
            f"rhs = {doc['rhs']['re']} + {doc['rhs']['im']} i",
            f"|lhs - rhs| = {doc['abs_diff']}",
            f"sigma(k) = {report.sigma_k}, sigma(l) = {report.sigma_l}",
            f"det k0 = {report.det_k0}, det l0 = {report.det_l0}",
        ]
        if not report.l_even:
            lines.append("# note: l has an odd diagonal; the identity requires "
                         "evenness only of k")
        return lines

    _emit(doc, text_lines, args)
    return EXIT_OK


def _parse_move(move, raw_args):
    parts = [x for x in raw_args.replace(",", " ").split()] if raw_args else []
    try:
        if move == "1":
            (sign,) = parts
            return ("1", int(sign))
        if move == "1inv":
            (index,) = parts
            return ("1inv", int(index) - 1)
        if move == "2":
            i0, j0, sign = parts
            return ("2", int(i0) - 1, int(j0) - 1, int(sign))
    except ValueError:
        pass
    raise MatrixParseError(
        "bad --args: move 1 takes 'sign', 1inv takes 'index', 2 takes 'i0,j0,sign'"
    )


def _move_text(move):
    # transcript lines carry 1-based indices, matching --args
    if move[0] == "1":
        return f"1 {move[1]:+d}"
    if move[0] == "1inv":
        return f"1inv {move[1] + 1}"
    return f"2 {move[1] + 1} {move[2] + 1} {move[3]:+d}"


def cmd_kirby(args):
    m = load_matrix(args.matrix)
    move = _parse_move(args.move, args.args)
    out = apply_move(m, move)
    _emit({"command": "kirby", "matrix": out},
          lambda: [format_matrix(out)[:-1]], args)
    return EXIT_OK


def cmd_evenize(args):
    m = load_matrix(args.matrix)
    out, transcript = evenize(m, budget=_budget(args))
    moves = [_move_text(mv) for mv in transcript]
    doc = {"command": "evenize", "matrix": out, "transcript": moves}
    _emit(doc, lambda: [format_matrix(out)[:-1], *(f"# move: {mv}" for mv in moves)],
          args)
    return EXIT_OK


def cmd_dual(args):
    from .reciprocity import cs_dual

    l = load_matrix(args.l)
    k = load_matrix(args.k)
    dual = cs_dual(l, k)
    doc = {
        "command": "dual",
        "dual_linking": dual.linking,
        "dual_coupling": dual.coupling,
    }
    _emit(doc, lambda: [
        "# dual linking matrix", format_matrix(dual.linking)[:-1],
        "# dual coupling matrix", format_matrix(dual.coupling)[:-1],
    ], args)
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by every
    later one: main() reuses it for each command it runs in this process.
    Each parse_args call makes a fresh Namespace, so no state carries over
    between commands.  Callers must not mutate the returned parser."""
    parser = argparse.ArgumentParser(
        prog="surgeryinv",
        description="Invariants of 3-manifolds presented by surgery linking matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, precision=False, budget=False):
        p.add_argument("--json", action="store_true",
                       help="emit a JSON result document")
        if precision:
            p.add_argument("--precision", type=_precision_bits, default=128,
                           help="working precision in bits (default 128)")
        if budget:
            p.add_argument("--budget", type=_term_budget, default=None,
                           help=f"maximum number of summands of one "
                                f"p-primary block of the group, "
                                f"and of pair updates combining the blocks "
                                f"(default {DEFAULT_TERM_BUDGET}, or "
                                f"${BUDGET_ENV})")

    p = sub.add_parser("snf", help="Smith normal form with transforms")
    p.add_argument("matrix")
    common(p)
    p.set_defaults(fn=cmd_snf)

    p = sub.add_parser("homology", help="b1, torsion and the homology list")
    p.add_argument("matrix", nargs="?")
    p.add_argument("--preset", help="unknot:f | hopf:f1,f2 | borromean | lens:p,q")
    common(p)
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("linking-form", help="torsion linking form")
    p.add_argument("matrix", nargs="?")
    p.add_argument("--preset")
    common(p)
    p.set_defaults(fn=cmd_linking_form)

    p = sub.add_parser("partition", help="U(1)^n partition function")
    p.add_argument("--coupling", required=True, help="coupling matrix file")
    p.add_argument("--manifold", required=True,
                   help="linking matrix file or preset")
    common(p, precision=True, budget=True)
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("reciprocity", help="both sides of the reciprocity identity")
    p.add_argument("--l", required=True, help="linking matrix file")
    p.add_argument("--k", required=True, help="even coupling matrix file")
    common(p, precision=True, budget=True)
    p.set_defaults(fn=cmd_reciprocity)

    p = sub.add_parser("kirby", help="apply one Kirby move")
    p.add_argument("matrix")
    p.add_argument("--move", required=True, choices=["1", "1inv", "2"])
    p.add_argument("--args", default="",
                   help="move 1: sign; 1inv: index (1-based); 2: i0,j0,sign")
    common(p)
    p.set_defaults(fn=cmd_kirby)

    p = sub.add_parser("evenize", help="make all framings even via Kirby moves")
    p.add_argument("matrix")
    common(p)
    # no --budget flag: the output size is held to $SURGERYINV_BUDGET or
    # the default
    p.set_defaults(fn=cmd_evenize, budget=None)

    p = sub.add_parser("dual", help="dual theory data (linking, coupling)")
    p.add_argument("--l", required=True, help="even linking matrix file")
    p.add_argument("--k", required=True, help="even coupling matrix file")
    common(p)
    p.set_defaults(fn=cmd_dual)

    return parser


def main(argv=None):
    # exact results outgrow Python's int/str conversion limit (4300 digits
    # by default); lift it while this command runs and restore it after
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        return _run(argv)
    saved = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(saved)


def _run(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MatrixParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
