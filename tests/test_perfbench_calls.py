"""Every radarqi attribute the benchmark calls or wraps still exists.

``perfbench/workloads.py`` calls the program through module attributes
(``fista.fista_solve_many``), so a function deleted or renamed in radarqi
would crash a benchmark run with an AttributeError outside its operation
counter. ``perfbench/spans.py`` wraps the functions and methods its
``TARGETS`` name and silently skips a name that is gone, so that span's
per-layer rows would read 0. An ``ast`` scan lists both without importing
the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"


def radarqi_attributes(source: str) -> list[tuple[str, str]]:
    """(module, attribute) for each ``name.attr`` whose ``name`` is bound by
    ``from radarqi import ...``, and (module, name) for each name imported
    from a radarqi module; sorted, without repeats."""
    tree = ast.parse(source)
    modules, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("radarqi"):
            for alias in node.names:
                if node.module == "radarqi":
                    modules[alias.asname or alias.name] = f"radarqi.{alias.name}"
                else:
                    found.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.add((modules[node.value.id], node.attr))
    return sorted(found)


CALLED = radarqi_attributes(WORKLOADS.read_text(encoding="utf-8"))


def test_scan_finds_module_attributes_and_imported_names():
    source = (
        "from radarqi import fista, io as rio\nfrom radarqi.config import ExperimentConfig\n"
        "import numpy as np\nfista.solve(np.zeros(2)); rio.load(); other.thing()\n"
    )
    assert radarqi_attributes(source) == [
        ("radarqi.config", "ExperimentConfig"),
        ("radarqi.fista", "solve"),
        ("radarqi.io", "load"),
    ]


def test_the_workloads_call_the_solver_and_the_models():
    assert ("radarqi.fista", "fista_solve_many") in CALLED
    assert ("radarqi.models", "predict_maps") in CALLED


@pytest.mark.parametrize("module, attr", CALLED, ids=[f"{m}.{a}" for m, a in CALLED])
def test_called_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(module), attr)


def span_targets(source: str) -> list[tuple[str, str, str, str | None]]:
    """(span name, module, attribute, method or None) of each ``TARGETS`` entry."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [tuple(ast.literal_eval(e) for e in entry.elts[:4]) for entry in node.value.elts]
    raise AssertionError("perfbench/spans.py defines no TARGETS")


TARGETS = span_targets((PERFBENCH / "spans.py").read_text(encoding="utf-8"))

# Span targets that radarqi no longer defines, each with its metric retired.
RETIRED_SPANS = {"fista.power_iteration_lmax"}


def test_the_spans_wrap_the_solver_and_the_unrolled_network():
    names = {span for span, *_ in TARGETS}
    assert {"fista.fista_solve", "models.LFistaResNet.backward"} <= names


@pytest.mark.parametrize("span, module, attr, method", TARGETS, ids=[t[0] for t in TARGETS])
def test_span_target_exists(span, module, attr, method):
    owner = getattr(importlib.import_module(module), attr, None)
    if span in RETIRED_SPANS:
        assert owner is None, f"{span} exists again: drop it from RETIRED_SPANS"
        return
    assert owner is not None
    if method is not None:
        # spans wrap the method where the class itself defines it
        assert method in vars(owner)
