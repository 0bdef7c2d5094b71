"""Every ``blockspot`` name the benchmark reads or patches exists.

``bench/tracer.py``'s ``Tracer.patch`` skips a missing attribute without a
word, so a renamed function would drop its traced layer from the benchmark
unnoticed.  This check walks the benchmark's non-test sources and resolves
each ``blockspot`` attribute they read (``pipeline.run``,
``model.Document.line_by_id``, ...) or pass to ``patch`` by name.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest
from conftest import sign_doc

from blockspot import pipeline

BENCH = Path(__file__).parent.parent / "bench"
SOURCES = sorted(p for p in BENCH.glob("*.py") if not p.name.startswith("test_"))

_MISSING = object()


def _module_names(tree: ast.AST) -> dict[str, str]:
    """Local name -> dotted path, for every name bound by importing from blockspot."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "blockspot":
                    # "import blockspot.cli" binds "blockspot"; "as" binds the module itself
                    names[alias.asname or "blockspot"] = alias.name if alias.asname else "blockspot"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "blockspot":
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _dotted(node: ast.AST, names: dict[str, str]) -> str | None:
    """``pipeline.run`` -> ``blockspot.pipeline.run``; None if not rooted in blockspot."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in names:
        return None
    return ".".join([names[node.id], *reversed(attrs)])


def bench_references(source: str) -> list[str]:
    """Dotted ``blockspot`` paths that a benchmark source reads, imports or patches."""
    tree = ast.parse(source)
    names = _module_names(tree)
    refs = set(names.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            refs.update(a.name for a in node.names if a.name.split(".")[0] == "blockspot")
        elif isinstance(node, ast.Attribute):
            refs.add(_dotted(node, names))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "patch"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            owner = _dotted(node.args[0], names)
            if owner is not None:
                refs.add(f"{owner}.{node.args[1].value}")
    refs.discard(None)
    return sorted(refs)


def resolve(path: str) -> object:
    """The object at a dotted path: the longest importable module, then attributes."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, _MISSING)
            if obj is _MISSING:
                return _MISSING
        return obj
    return _MISSING


def missing(source: str) -> list[str]:
    return [ref for ref in bench_references(source) if resolve(ref) is _MISSING]


def test_checker_sees_a_missing_name():
    source = (
        "from blockspot import model, pipeline\n"
        "from blockspot.llm import NoSuchError\n"
        "pipeline.run(model.Document.no_such_method)\n"
        "tracer.patch(pipeline, 'no_such_function', wrap)\n"
        "tracer.patch(backend, 'send', wrap)\n"
    )
    assert missing(source) == [
        "blockspot.llm.NoSuchError",
        "blockspot.model.Document.no_such_method",
        "blockspot.pipeline.no_such_function",
    ]


def test_the_tracer_patches_are_seen():
    refs = bench_references((BENCH / "tracer.py").read_text("utf-8"))
    assert {"blockspot.pipeline.plan_recognition", "blockspot.model.Document.line_by_id"} <= set(refs)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_blockspot_name_the_bench_uses_exists(path):
    assert missing(path.read_text("utf-8")) == []


def test_recognize_document_plans_through_the_patchable_name(monkeypatch):
    # the tracer's geometry.plan span and plan_lines count wrap this global
    calls = []
    plan = pipeline.plan_recognition

    def counting(doc):
        calls.append(doc)
        return plan(doc)

    monkeypatch.setattr(pipeline, "plan_recognition", counting)
    docs = [sign_doc(), sign_doc()]
    for doc in docs:
        pipeline.recognize_document(doc, pipeline.EchoRecognizer(doc))
    assert calls == docs
