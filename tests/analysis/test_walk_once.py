"""Work-count gate: one lint run walks each module tree once.

Wall time on a shared machine is too noisy to gate the analyzer's
traversal cost, but the amount of traversal is exact.  This test lints
a real subtree with counting spies on ``ast.walk``, on the call graph's
import-map and base-table builders, on the scope walker and on the
interval analysis, then asserts that every pass read the shared
:class:`ModuleIndex` instead of walking again, and that each module's
interval analysis was built once.

``repro/sampling`` is estimator-stack code with ``@requires`` contracts,
``repro/estimators`` holds estimator classes and ``repro/experiments``
submits worker tasks, so the run reaches the numeric, purity and
float-domain rules, the cross-module contract lookup, the taint
fixpoint and the task-root resolution of R1001, R1002 and R1101.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.analysis import callgraph, source
from repro.analysis.dataflow import ModuleIntervals
from repro.analysis.runner import LintReport, lint_paths
from repro.analysis.source import SourceModule

SRC = Path(__file__).resolve().parents[2] / "src"

TREE = [SRC / "repro" / package for package in ("sampling", "estimators", "experiments")]


@dataclass(repr=False)
class WorkCounts:
    report: LintReport
    modules: list[SourceModule]
    #: ``id(tree)`` -> full ``ast.walk`` calls on that module tree.
    tree_walks: Counter
    imports: Counter
    bases: Counter
    #: ``id(scope node)`` -> scope walks computed for it.
    scope_walks: Counter
    #: module path -> interval analyses built for it.
    interval_analyses: Counter


def _patch_everywhere(
    patch: pytest.MonkeyPatch, original: object, replacement: object
) -> None:
    """Replace ``original`` in every loaded analyzer module that holds it."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro.analysis"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                patch.setattr(module, attribute, replacement)


def count_work(paths: list[Path]) -> WorkCounts:
    """Lint ``paths`` with counting spies installed; return the counts."""
    modules: list[SourceModule] = []
    tree_walks: Counter = Counter()
    imports: Counter = Counter()
    bases: Counter = Counter()
    scope_walks: Counter = Counter()
    interval_analyses: Counter = Counter()

    parse = SourceModule.from_source.__func__  # type: ignore[attr-defined]
    walk = ast.walk
    import_map = callgraph._import_map
    in_module_bases = callgraph._in_module_bases
    walk_scope = source._walk_scope
    analyze = ModuleIntervals.__init__

    def spy_parse(cls, text, path="<memory>"):
        module = parse(cls, text, path)
        modules.append(module)
        return module

    def spy_walk(node):
        if any(node is module.tree for module in modules):
            tree_walks[id(node)] += 1
        return walk(node)

    def spy_imports(module):
        imports[module.path] += 1
        return import_map(module)

    def spy_bases(module):
        bases[module.path] += 1
        return in_module_bases(module)

    def spy_scope(node):
        scope_walks[id(node)] += 1
        return walk_scope(node)

    def spy_analyze(self, module, *args, **kwargs):
        interval_analyses[module.path] += 1
        analyze(self, module, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SourceModule, "from_source", classmethod(spy_parse))
        patch.setattr(ast, "walk", spy_walk)
        _patch_everywhere(patch, import_map, spy_imports)
        _patch_everywhere(patch, in_module_bases, spy_bases)
        _patch_everywhere(patch, walk_scope, spy_scope)
        patch.setattr(ModuleIntervals, "__init__", spy_analyze)
        report = lint_paths([str(path) for path in paths])
    return WorkCounts(
        report, modules, tree_walks, imports, bases, scope_walks, interval_analyses
    )


@pytest.fixture(scope="module")
def counts() -> WorkCounts:
    return count_work(TREE)


def test_the_run_reaches_every_pass(counts):
    assert counts.report.files_scanned == len(counts.modules) > 0
    assert counts.scope_walks, "no scope was walked: the scope rules did not run"


def test_each_module_tree_is_walked_at_most_once(counts):
    repeated = {
        module.path: counts.tree_walks[id(module.tree)]
        for module in counts.modules
        if counts.tree_walks[id(module.tree)] > 1
    }
    assert not repeated, f"module trees walked more than once: {repeated}"


def test_each_import_map_and_base_table_is_built_once(counts):
    paths = sorted(module.path for module in counts.modules)
    assert sorted(counts.imports.elements()) == paths
    assert sorted(counts.bases.elements()) == paths


def test_no_scope_walk_is_computed_twice(counts):
    repeated = sum(1 for calls in counts.scope_walks.values() if calls > 1)
    assert repeated == 0, f"{repeated} scopes were walked more than once"


def test_each_module_is_analyzed_once(counts):
    paths = sorted(module.path for module in counts.modules)
    assert sorted(counts.interval_analyses.elements()) == paths
