"""Whole-project facts shared by the cross-module rules.

The purity rule (R401) and the registry-completeness rule (R501) need to
know *which classes are estimators* and *which are registered* — facts
that live in different files than the violations they gate.  This module
derives both purely from the ASTs of the scanned files, so the analyzer
never imports the code under analysis (no side effects, works on broken
trees, and fixture tests can fake the whole world with a few classes).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

from repro.analysis.source import SourceModule

__all__ = ["ClassFacts", "ProjectContext", "build_context", "context_cached"]

_T = TypeVar("_T")

#: Root of the estimator hierarchy (``repro.core.base``).
ESTIMATOR_BASE = "DistinctValueEstimator"

#: Name of the registry mapping in ``repro.core.registry``.
REGISTRY_NAME = "ESTIMATOR_FACTORIES"


@dataclass
class ClassFacts:
    """What the ASTs tell us about one class definition."""

    name: str
    module_path: str
    lineno: int
    col: int
    bases: tuple[str, ...]
    is_abstract: bool
    node: ast.ClassDef


def _base_name(base: ast.expr) -> str | None:
    """The rightmost identifier of a base-class expression, if any."""
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return None


def _is_abstract(node: ast.ClassDef) -> bool:
    """Heuristic abstractness: ABC/ABCMeta bases or abstractmethod members."""
    for base in node.bases:
        if _base_name(base) in ("ABC", "ABCMeta"):
            return True
    for keyword in node.keywords:
        if keyword.arg == "metaclass" and _base_name(keyword.value) == "ABCMeta":
            return True
    for statement in node.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in statement.decorator_list:
                if _base_name(decorator) in ("abstractmethod", "abstractproperty"):
                    return True
    return False


def _factory_class_name(value: ast.expr) -> str | None:
    """Class name a registry value refers to (``GEE``, ``lambda: GEE()`` …)."""
    if isinstance(value, (ast.Name, ast.Attribute)):
        return _base_name(value)
    if isinstance(value, ast.Lambda):
        body = value.body
        if isinstance(body, ast.Call):
            return _base_name(body.func)
    if isinstance(value, ast.Call):  # functools.partial(GEE, ...)
        if value.args:
            return _base_name(value.args[0])
    return None


@dataclass
class ProjectContext:
    """Estimator hierarchy and registry membership, derived statically."""

    classes: dict[str, ClassFacts] = field(default_factory=dict)
    estimator_classes: set[str] = field(default_factory=set)
    registered_classes: set[str] = field(default_factory=set)
    registry_module: str | None = None
    registry_lineno: int = 0


def build_context(modules: list[SourceModule]) -> ProjectContext:
    """Scan every module once and derive the shared project facts."""
    context = ProjectContext()
    for module in modules:
        for node in module.index.nodes:
            if isinstance(node, ast.ClassDef):
                bases = tuple(
                    name
                    for name in (_base_name(base) for base in node.bases)
                    if name is not None
                )
                facts = ClassFacts(
                    name=node.name,
                    module_path=module.path,
                    lineno=node.lineno,
                    col=node.col_offset,
                    bases=bases,
                    is_abstract=_is_abstract(node),
                    node=node,
                )
                # Same-named classes in different scanned files (fixtures)
                # keep the first definition; the hierarchy walk below only
                # needs names, so collisions are harmless.
                context.classes.setdefault(node.name, facts)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == REGISTRY_NAME
                        and node.value is not None
                        and isinstance(node.value, ast.Dict)
                    ):
                        context.registry_module = module.path
                        context.registry_lineno = node.lineno
                        for value in node.value.values:
                            name = _factory_class_name(value)
                            if name is not None:
                                context.registered_classes.add(name)

    # Transitive closure of subclasses of the estimator base, by name.
    frontier = {ESTIMATOR_BASE}
    while frontier:
        next_frontier: set[str] = set()
        for facts in context.classes.values():
            if facts.name in context.estimator_classes:
                continue
            if any(base in frontier for base in facts.bases):
                context.estimator_classes.add(facts.name)
                next_frontier.add(facts.name)
        frontier = next_frontier
    return context


def context_cached(
    context: object | None,
    attribute: str,
    modules: Sequence[SourceModule],
    build: Callable[[], _T],
) -> _T:
    """``build()``, memoized on ``context`` for this exact module list.

    Project rules that need the same whole-tree result in one lint run
    share it through the :class:`ProjectContext`, which outlives them all.
    """
    if context is None:
        return build()
    token = tuple(id(module) for module in modules)
    cached = getattr(context, attribute, None)
    if cached is None or cached[0] != token:
        cached = (token, build())
        setattr(context, attribute, cached)
    return cached[1]  # type: ignore[no-any-return]
