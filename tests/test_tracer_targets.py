"""The benchmark tracer wraps surgeryinv functions by name; a renamed or
deleted one would fail every traced benchmark run, so check them here."""

import importlib
import importlib.util
import inspect
import os

from surgeryinv import exactmat, gauss

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(mod, fn) for mod, fn, _, _ in tracer.TARGETS if mod != "json"]
    assert ("gauss", "_check_budget") in targets
    for mod, fn in targets:
        module = importlib.import_module(f"surgeryinv.{mod}")
        assert callable(getattr(module, fn, None)), f"{mod}.{fn}"


def test_what_the_tracer_reads_from_the_budget_check():
    # _budget_counts reads _check_budget's first three positional arguments
    # and falls back to gauss.DEFAULT_TERM_BUDGET
    params = tuple(inspect.signature(gauss._check_budget).parameters)
    assert params == ("radix", "ncopies", "budget")
    assert gauss.DEFAULT_TERM_BUDGET is exactmat.DEFAULT_TERM_BUDGET
