"""Invariants of closed oriented 3-manifolds given by surgery linking matrices.

The package works entirely at the level of the symmetric integer linking
matrix of a framed surgery link: Kirby moves, first homology, the torsion
linking form, abelian Chern-Simons partition functions as exact sums of
roots of unity, the Gauss-sum reciprocity identity relating a coupling
matrix and a linking matrix, and the duality it induces between theories.

Importing the package loads none of its modules: each public name is
imported from its module on first access (PEP 562), so the exact kernel
can be used without loading the Gauss-sum engine or mpmath.
"""

import importlib

_MODULE_NAMES = {
    "exactmat": (
        "BlockDecomposition",
        "BudgetExceededError",
        "DEFAULT_TERM_BUDGET",
        "SnfResult",
        "block_decompose",
        "det_int",
        "identity",
        "int_inverse",
        "is_even_symmetric",
        "is_symmetric",
        "mat",
        "mat_mul",
        "rat_inverse",
        "signature",
        "smith_normal_form",
        "transpose",
    ),
    "surgery": (
        "apply_move",
        "borromean",
        "coupling_to_even",
        "evenize",
        "hopf",
        "kirby1",
        "kirby1_inverse",
        "kirby2",
        "preset",
        "unknot",
    ),
    "homology": (
        "Group",
        "HomologySummary",
        "LinkingForm",
        "ManifoldPresentation",
        "TorsionGroup",
        "first_homology",
        "full_homology",
        "lens_chain",
        "lens_presentation",
        "linking_form",
        "linking_form_with_generators",
        "presentation",
    ),
    "gauss": (
        "ComplexValue",
        "CyclotomicSum",
        "conjugate",
        "coset_representatives",
        "eval_numeric",
        "gauss_sum_over_lattice",
        "partition_function",
    ),
    "reciprocity": (
        "DualTheory",
        "ReciprocityReport",
        "chat_from_even",
        "cs_dual",
        "reciprocity_sides",
    ),
}

_MODULE_OF = {name: module for module, names in _MODULE_NAMES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
