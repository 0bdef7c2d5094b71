"""Every name a library module imports is used in that module, and so is
every private name it defines at module level.

``__init__`` is skipped for imports: it imports names to re-export them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "blockspot"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def unused_private_names(source: str) -> list[str]:
    """Module-level ``_name`` functions, classes and assignments that nothing in
    the module reads."""
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in defined.items() if name not in used]


def test_checker_sees_an_unused_name():
    source = "import time\nfrom typing import Mapping, Sequence\nx: Sequence[int] = []\n"
    assert unused_imports(source) == ["time (line 1)", "Mapping (line 2)"]


def test_checker_sees_an_unused_private_name():
    source = (
        "_A, _B = 1, 2\n"
        "_C: int = _A\n"
        "def _used():\n    return _C\n"
        "def _dead():\n    return _used()\n"
        "class _Gone:\n    pass\n"
        "__all__ = []\n"
        "public = 3\n"
    )
    assert unused_private_names(source) == ["_B (line 1)", "_dead (line 5)", "_Gone (line 7)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text("utf-8")) == []


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text("utf-8")) == []
