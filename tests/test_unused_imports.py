"""Every top-level import in a ``src/repro`` module is used by that module.

A deletion that leaves its imports behind makes a module look as if it
still depends on code it no longer calls.  This scan fails on any name a
module imports at top level (including inside top-level ``if``/``try``
blocks) and never reads.

Exempt: package ``__init__.py`` files (their imports are the package's
surface), ``from __future__`` imports, names listed in the module's
``__all__`` (deliberate re-exports), and names read only inside string
annotations such as ``-> "Forest"``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _top_level_imports(tree):
    """Yield ``(bound name, line)`` for imports outside any def or class."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If):
            stack.extend(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            stack.extend(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                stack.extend(handler.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    """Every annotation expression in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _dunder_all(tree):
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            return {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return set()


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                try:
                    parsed = ast.parse(const.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return used | _dunder_all(tree)


def unused_imports():
    """``["path:line name", ...]`` for every unused top-level import."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        rel = path.relative_to(SRC.parent)
        found.extend(
            f"{rel}:{line} {name}"
            for name, line in _top_level_imports(tree)
            if name not in used
        )
    return sorted(found)


def test_scan_flags_an_unused_import(tmp_path):
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import List, Optional\n"
        "__all__ = ['sys']\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [x]\n"
    )
    used = _used_names(tree)
    unused = [name for name, _ in _top_level_imports(tree) if name not in used]
    assert unused == ["os"]


def test_no_unused_imports():
    unused = unused_imports()
    assert not unused, "unused top-level imports:\n" + "\n".join(unused)
