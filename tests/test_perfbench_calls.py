"""Every radarqi attribute the benchmark calls or wraps still exists, and
every call the benchmark makes still binds to its signature.

``perfbench/workloads.py`` calls the program through module attributes
(``fista.fista_solve_many``), so a function deleted or renamed in radarqi
would crash a benchmark run with an AttributeError outside its operation
counter, and a changed signature would fail every operation that calls it.
``perfbench/spans.py`` wraps the functions and methods its ``TARGETS`` name
and silently skips a name that is gone, so that span's per-layer rows would
read 0. An ``ast`` scan lists all three without importing the benchmark.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"


def radarqi_names(tree: ast.AST) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """The modules bound by ``from radarqi import ...``, by local name, and
    the (module, name) of each name imported from a radarqi module."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("radarqi"):
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module == "radarqi":
                    modules[local] = f"radarqi.{alias.name}"
                else:
                    names[local] = (node.module, alias.name)
    return modules, names


def radarqi_attributes(source: str) -> list[tuple[str, str]]:
    """(module, attribute) for each ``name.attr`` whose ``name`` is bound by
    ``from radarqi import ...``, and (module, name) for each name imported
    from a radarqi module; sorted, without repeats."""
    tree = ast.parse(source)
    modules, names = radarqi_names(tree)
    found = set(names.values())
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.add((modules[node.value.id], node.attr))
    return sorted(found)


def radarqi_calls(source: str) -> list[tuple[int, str, str, int | None, tuple[str, ...]]]:
    """(line, module, attribute, positional count, keyword names) of each call
    of a radarqi callable, by line: a direct call (``fista.FistaConfig(...)``,
    ``apply_fast_profile(...)``) or ``ledger.call(label, fn, *args,
    check=..., **kwargs)``, whose ``fn`` gets ``args`` and every keyword but
    ``check``. The positional count is None where a call unpacks ``*`` or
    ``**`` arguments, which no static scan can count."""
    tree = ast.parse(source)
    modules, names = radarqi_names(tree)

    def target(expr):
        if isinstance(expr, ast.Name):
            return names.get(expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            module = modules.get(expr.value.id)
            return (module, expr.attr) if module else None
        return None

    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args, keywords = node.func, node.args, node.keywords
        if ast.unparse(func) == "ledger.call":
            func, args = args[1], args[2:]
            keywords = [k for k in keywords if k.arg != "check"]
        fn = target(func)
        if fn is None:
            continue
        unpacked = any(isinstance(a, ast.Starred) for a in args) or any(k.arg is None for k in keywords)
        count = None if unpacked else len(args)
        found.append((node.lineno, *fn, count, tuple(k.arg for k in keywords if k.arg)))
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


def binding_error(fn, count: int | None, keywords) -> str | None:
    """Why ``fn`` cannot take ``count`` positional arguments and the named
    keywords, or None if it can."""
    if count is None:
        return "the call unpacks * or ** arguments, which a static check cannot bind"
    try:
        inspect.signature(fn).bind(*[None] * count, **dict.fromkeys(keywords))
    except TypeError as exc:
        return str(exc)
    return None


CALLS = radarqi_calls(WORKLOADS.read_text(encoding="utf-8"))


def test_call_scan_finds_direct_and_ledger_calls():
    source = (
        "from radarqi import harness, metrics as rm\nfrom radarqi.config import ExperimentConfig\n"
        "ledger.call('load', harness.load_trained_model, cfg, op, kind, path, check=ok)\n"
        "harness.build_scene(ExperimentConfig(), f0_hz=1.0)\n"
        "ledger.call('local', quality, check=ok); rm.ssim(*pair); other.call('x', rm.mse)\n"
    )
    assert radarqi_calls(source) == [
        (3, "radarqi.harness", "load_trained_model", 4, ()),
        (4, "radarqi.config", "ExperimentConfig", 0, ()),
        (4, "radarqi.harness", "build_scene", 1, ("f0_hz",)),
        (5, "radarqi.metrics", "ssim", None, ()),
    ]


def test_binding_error_names_a_missing_required_parameter():
    def load(cfg, op, kind, path, strict):
        pass

    assert binding_error(load, 5, ()) is None
    assert "strict" in binding_error(load, 4, ())
    assert "unexpected keyword" in binding_error(load, 5, ("check",))
    assert binding_error(load, None, ()) is not None


def test_the_workloads_call_the_checkpoint_loader_through_the_ledger():
    loads = [c for c in CALLS if c[1:3] == ("radarqi.harness", "load_trained_model")]
    assert loads and all(c[3:] == (4, ()) for c in loads)


@pytest.mark.parametrize(
    "line, module, attr, count, keywords", CALLS, ids=[f"{c[0]}:{c[1]}.{c[2]}" for c in CALLS]
)
def test_call_binds_to_the_signature(line, module, attr, count, keywords):
    problem = binding_error(getattr(importlib.import_module(module), attr), count, keywords)
    assert problem is None, f"perfbench/workloads.py:{line} calls {module}.{attr}: {problem}"


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
