"""Every imported name is read: an ``ast`` scan of the package modules and
the tests, standing in for a linter. ``__init__.py`` is left out, since its
imports are the package's exports. A second scan keeps scipy out of the
package: numpy is its one dependency, and the tests alone use scipy, as an
oracle."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "radarqi").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names an import statement binds that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


def test_scan_finds_an_unread_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nprint(np, e)\n"
    assert unused_imports(source) == ["os", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set[str]:
    """The top-level package of every module an import statement names."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_scan_finds_every_imported_package():
    source = "import os.path\nfrom scipy.ndimage import zoom\nfrom . import io\n"
    source += "def f():\n    import json\n"
    assert imported_modules(source) == {"os", "scipy", "json"}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_does_not_import_scipy(path):
    assert "scipy" not in imported_modules(path.read_text(encoding="utf-8"))
