"""Outside-in tracer: spans around surgeryinv's public functions.

install() replaces each target function in every surgeryinv module that
binds it (so `from .exactmat import smith_normal_form` inside homology,
gauss and cli is wrapped too) and uninstall() puts the originals back.
Each span records its name, parent span, command id, the wrapper's entry
and exit times, the wrapped call's start and end times, and counts read
from the call's arguments and result.  The private gauss._check_budget
is wrapped too: the engine calls it with the term count it is about to
enumerate, so that is where terms are counted.  Spans stay in memory; the worker
writes them out after the run, and layer_metrics() turns them into per-pass
layer metrics with self time = call time minus the wrapper time of child
spans.  Nothing in the program changes.
"""

import sys
from time import perf_counter

NAME, PARENT, CMD, T_IN, T_START, T_END, T_OUT, COUNTS = range(8)


def _bits(m):
    return max((abs(x).bit_length() for row in m for x in row), default=0)


def _budget_counts(gauss, args, kwargs, result):
    """Terms the engine is about to enumerate, and the budget they are held to."""
    radix, ncopies = args[:2]
    budget = args[2] if len(args) > 2 else kwargs.get("budget")
    return {"terms": radix ** ncopies,
            "budget": gauss.DEFAULT_TERM_BUDGET if budget is None else budget}


def _cheaper_side(gauss, args, kwargs, r):
    """Which side of the identity has fewer terms, from the report's determinants."""
    lhs = abs(r.det_k0) ** r.m if r.m and r.s else 1
    rhs = abs(r.det_l0) ** r.n if r.n and r.r else 1
    return {"cheap": 1 if lhs <= rhs else -1}


# module, function, metric its self time adds to (None: the caller's
# metric), optional counts reader
TARGETS = [
    ("cli", "main", "cli.main_s", None),
    ("cli", "parse_matrix", "cli.parse_s", None),
    ("cli", "load_matrix", "cli.parse_s", None),
    ("cli", "parse_preset", "cli.parse_s", None),
    ("cli", "_emit", "cli.emit_s", None),
    ("json", "dumps", "cli.emit_s", None),
    ("exactmat", "smith_normal_form", "exactmat.snf_s",
     lambda g, a, k, r: {"bits": max(_bits(r.u), _bits(r.v))}),
    ("exactmat", "rat_inverse", "exactmat.inverse_s", None),
    ("exactmat", "int_inverse", "exactmat.inverse_s", None),
    ("exactmat", "det_int", "exactmat.det_s", None),
    ("exactmat", "signature", "exactmat.signature_s", None),
    ("exactmat", "block_decompose", "exactmat.block_decompose_s", None),
    ("homology", "first_homology", "homology.first_homology_s", None),
    ("homology", "full_homology", "homology.first_homology_s", None),
    ("homology", "linking_form_with_generators", "homology.linking_form_s", None),
    ("homology", "linking_form", "homology.linking_form_s", None),
    ("homology", "presentation", "homology.presentation_s", None),
    ("homology", "lens_presentation", "homology.presentation_s", None),
    ("gauss", "partition_function", "gauss.partition_s",
     lambda g, a, k, r: {"phases": len(r)}),
    ("gauss", "gauss_sum_over_lattice", "gauss.lattice_s",
     lambda g, a, k, r: {"phases": len(r), "sign": a[2] if len(a) > 2 else k["sign"]}),
    ("gauss", "_check_budget", None, _budget_counts),
    ("gauss", "coset_representatives", "gauss.coset_reps_s", None),
    ("gauss", "eval_numeric", "gauss.readout_s", None),
    ("reciprocity", "reciprocity_sides", "reciprocity.sides_s", _cheaper_side),
    ("reciprocity", "cs_dual", "reciprocity.dual_s", None),
    ("surgery", "evenize", "surgery.evenize_s", None),
    ("surgery", "apply_move", "surgery.evenize_s",
     lambda g, a, k, r: {"components": len(a[0])}),
]

METRIC_OF = {f"{mod}.{fn}": metric for mod, fn, metric, _ in TARGETS}
TIME_METRICS = sorted(set(METRIC_OF.values()) - {None})


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.cmd = -1
        self._saved = []

    def _wrap(self, name, fn, counts, gauss):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            t_in = perf_counter()
            rec = [name, stack[-1] if stack else -1, self.cmd, t_in, 0.0, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                rec[T_START] = perf_counter()
                result = fn(*args, **kwargs)
                rec[T_END] = perf_counter()
                if counts is not None:
                    rec[COUNTS] = counts(gauss, args, kwargs, result)
                return result
            finally:
                if not rec[T_END]:
                    rec[T_END] = perf_counter()
                stack.pop()
                rec[T_OUT] = perf_counter()

        return traced

    def install(self):
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "surgeryinv" or name.startswith("surgeryinv.")}
        gauss = pkg["surgeryinv.gauss"]
        for mod_name, fn_name, _, counts in TARGETS:
            if mod_name == "json":
                continue
            original = getattr(pkg[f"surgeryinv.{mod_name}"], fn_name)
            wrapped = self._wrap(f"{mod_name}.{fn_name}", original, counts, gauss)
            for mod in pkg.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapped)
        # cli calls json.dumps through its module-level `json` name
        cli = pkg["surgeryinv.cli"]
        proxy = type("TracedJson", (), {})()
        proxy.__dict__.update(vars(cli.json))
        proxy.dumps = self._wrap("json.dumps", cli.json.dumps, None, gauss)
        self._saved.append((cli, "json", cli.json))
        cli.json = proxy

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def take(self):
        """Return the spans recorded so far and start a new list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def layer_metrics(spans, wall, harness):
    """Per-layer metrics of one traced pass.

    harness is the time the worker measured itself spending outside
    cli.main in this pass.  The self times of all spans, the tracer's own
    bookkeeping (trace_s) and harness_s should add up to the pass's wall
    time; the caller reports what is left as unaccounted.
    """
    out = {m: 0.0 for m in TIME_METRICS}
    child_outer = [0.0] * len(spans)
    trace_s = 0.0
    for s in spans:
        outer = s[T_OUT] - s[T_IN]
        trace_s += outer - (s[T_END] - s[T_START])
        if s[PARENT] >= 0:
            child_outer[s[PARENT]] += outer

    def ancestor(i, names):
        i = spans[i][PARENT]
        while i >= 0 and spans[i][NAME] not in names:
            i = spans[i][PARENT]
        return i

    for i, s in enumerate(spans):
        owner = i
        while METRIC_OF[spans[owner][NAME]] is None:
            owner = spans[owner][PARENT]
        out[METRIC_OF[spans[owner][NAME]]] += (s[T_END] - s[T_START]) - child_outer[i]

    def counted(name):
        return [(i, s[COUNTS]) for i, s in enumerate(spans) if s[NAME] == name and s[COUNTS]]

    # terms are counted where the engine checks them against its budget;
    # under reciprocity_sides, the lattice sum's sign names the side
    budget = counted("gauss._check_budget")
    terms = sum(c["terms"] for _, c in budget)
    engine = counted("gauss.partition_function") + counted("gauss.gauss_sum_over_lattice")
    phases = sum(c["phases"] for _, c in engine)
    sides = {i: {1: 0, -1: 0, "cheap": c["cheap"]}
             for i, c in counted("reciprocity.reciprocity_sides")}
    for i, c in budget:
        lattice = ancestor(i, {"gauss.gauss_sum_over_lattice"})
        owner = ancestor(lattice, {"reciprocity.reciprocity_sides"}) if lattice >= 0 else -1
        if owner in sides:
            sides[owner][spans[lattice][COUNTS]["sign"]] += c["terms"]
    lhs = sum(s[1] for s in sides.values())
    rhs = sum(s[-1] for s in sides.values())
    cheap = sum(s[s["cheap"]] for s in sides.values())
    snf = [c for _, c in counted("exactmat.smith_normal_form")]
    moves = [c for _, c in counted("surgery.apply_move")]
    presentation = {"homology.presentation", "homology.lens_presentation"}
    presentations = sum(1 for s in spans if s[NAME] in presentation)
    snf_in_presentation = sum(1 for i, s in enumerate(spans)
                              if s[NAME] == "exactmat.smith_normal_form"
                              and ancestor(i, presentation) >= 0)
    out.update({
        "gauss.terms": terms,
        "gauss.distinct_phases": phases,
        "gauss.phase_yield": phases / terms if terms else 0.0,
        "gauss.budget_used": max((c["terms"] / c["budget"] for _, c in budget), default=0.0),
        "reciprocity.terms_lhs": lhs,
        "reciprocity.terms_rhs": rhs,
        "reciprocity.cheap_side_share": cheap / (lhs + rhs) if lhs + rhs else 0.0,
        "exactmat.snf_calls": len(snf),
        "exactmat.snf_max_bits": max((c["bits"] for c in snf), default=0),
        "homology.snf_per_presentation":
            snf_in_presentation / presentations if presentations else 0.0,
        "surgery.moves": len(moves),
        "surgery.max_components": max((c["components"] for c in moves), default=0),
        "trace_s": trace_s,
        "harness_s": harness,
        "traced_wall_s": wall,
    })
    return out
