"""The module index replays the analyzer's traversal orders exactly.

Rules keep the first match they see, so the cached sequences must hold
the very nodes, in the very order, that ``ast.walk`` and the scope
walker yield.  The oracles below are independent of the index: the
standard library's ``ast.walk`` and a copy of the scope walker the
analyzer used before the index existed.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path

import pytest

from repro.analysis.source import SourceModule

from tests.analysis.conftest import FIXTURES, SRC

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)

FILES = sorted(str(path) for path in SRC.rglob("*.py")) + sorted(
    os.path.join(FIXTURES, name)
    for name in os.listdir(FIXTURES)
    if name.endswith(".py")
)


def _oracle_scope_walk(node: ast.AST):
    """Descendants of ``node`` without entering nested scopes."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, _SCOPES):
            stack.extend(ast.iter_child_nodes(child))


def _same_nodes(cached: tuple[ast.AST, ...], expected: list[ast.AST]) -> bool:
    return len(cached) == len(expected) and all(
        a is b for a, b in zip(cached, expected)
    )


def _label(path: str) -> str:
    return str(Path(path).relative_to(SRC.parent))


@pytest.mark.parametrize("path", FILES, ids=_label)
def test_index_replays_every_walk(path):
    module = SourceModule.from_file(path)
    index = module.index
    expected = list(ast.walk(module.tree))
    assert _same_nodes(index.nodes, expected)
    for node in [module.tree, *expected]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            assert _same_nodes(index.walk(node), list(ast.walk(node)))
        if node is module.tree or isinstance(node, _SCOPES):
            assert _same_nodes(index.scope(node), list(_oracle_scope_walk(node)))


def test_each_parse_owns_its_index():
    text = "def f(x):\n    return [y for y in x if y]\n"
    first = SourceModule.from_source(text)
    second = SourceModule.from_source(text)
    assert first.index is first.index
    assert first.index is not second.index
    assert first.index.nodes[0] is first.tree
    assert second.index.nodes[0] is second.tree
    # Load/Store contexts are interpreter-wide singletons; every other
    # node belongs to one parse.
    assert not any(
        a is b
        for a, b in zip(first.index.nodes, second.index.nodes)
        if not isinstance(a, ast.expr_context)
    )


def test_derived_tables_are_built_once_per_module():
    calls: list[str] = []

    def build(module: SourceModule) -> int:
        calls.append(module.path)
        return len(module.index.nodes)

    first = SourceModule.from_source("x = 1\n", path="a.py")
    second = SourceModule.from_source("x = 1\n", path="b.py")
    assert first.derived(build) == first.derived(build) == second.derived(build)
    assert calls == ["a.py", "b.py"]
