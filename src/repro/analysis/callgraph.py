"""Lightweight cross-module call graph for the flow rules.

R301/R401 are local: they look at one function's body.  But state is
transitive — ``repro.experiments.harness`` calling a ``repro.data``
helper that touches the global RNG inherits the non-reproducibility even
though neither module shows a violation locally.  This module builds a
deliberately modest call graph over the scanned tree so the flow rules
(:mod:`repro.analysis.rules.flow`) can follow such chains.

Resolution is *syntactic and conservative in the miss direction*: edges
are added only for call forms we can resolve with confidence —

* bare names defined in the same module or imported from a scanned
  module (``from repro.x import f``);
* ``alias.f`` / ``alias.sub.f`` where ``alias`` is an imported scanned
  module (``import repro.x as alias``, ``from repro import x``);
* ``self.f()`` / ``cls.f()`` to a method of the enclosing class or an
  in-module base class.

Imports are read from the module's
:func:`~repro.analysis.source.import_table`, and a scanned module is
named by :func:`~repro.analysis.source.module_name` (a file outside
``repro/`` by its stem).  Unresolvable calls simply add no edge, so the
flow rules under-report rather than hallucinate paths.  That is the
right trade for a lint gate: every reported chain is real and readable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analysis.effects import FunctionEffects, module_effects
from repro.analysis.project import context_cached
from repro.analysis.source import SourceModule, import_table, module_name

__all__ = [
    "CallGraphNode",
    "CallSiteResolver",
    "ProjectCallGraph",
    "build_callgraph",
    "cached_callgraph",
]


@dataclass
class CallGraphNode:
    """One function in the project graph."""

    #: Fully qualified key, ``repro.sampling.schemes.Bernoulli._draw``.
    key: str
    module: SourceModule
    effects: FunctionEffects


@dataclass
class ProjectCallGraph:
    """Resolved call edges over every scanned module."""

    nodes: dict[str, CallGraphNode] = field(default_factory=dict)
    edges: dict[str, set[str]] = field(default_factory=dict)
    _by_module: dict[int, list[str]] = field(default_factory=dict, repr=False)

    def keys_of(self, module: SourceModule) -> list[str]:
        """Keys of the nodes ``module`` owns, in :attr:`nodes` order."""
        if not self._by_module:
            for key, node in self.nodes.items():
                self._by_module.setdefault(id(node.module), []).append(key)
        return self._by_module.get(id(module), [])

    def find_path(
        self, start: str, targets: Iterable[str]
    ) -> list[str] | None:
        """Shortest call chain from ``start`` into ``targets`` (exclusive).

        Returns ``[start, ..., target]`` or ``None``.  ``start`` itself is
        never accepted as a target — local effects are the local rules'
        business; the flow rules only care about *reaching* one.
        """
        wanted = set(targets) - {start}
        if not wanted:
            return None
        parents: dict[str, str] = {}
        seen = {start}
        frontier = [start]
        while frontier:
            next_frontier: list[str] = []
            for key in frontier:
                for callee in sorted(self.edges.get(key, ())):
                    if callee in seen:
                        continue
                    seen.add(callee)
                    parents[callee] = key
                    if callee in wanted:
                        chain = [callee]
                        while chain[-1] != start:
                            chain.append(parents[chain[-1]])
                        return list(reversed(chain))
                    next_frontier.append(callee)
            frontier = next_frontier
        return None


def _class_of(qualname: str) -> str | None:
    """Enclosing class prefix of a method qualname, if it looks like one."""
    if "." not in qualname or "<locals>" in qualname:
        return None
    return qualname.rsplit(".", 1)[0]


def _in_module_bases(module: SourceModule) -> dict[str, tuple[str, ...]]:
    """Class name → in-module base-class names (single level)."""
    classes = [
        node for node in module.index.nodes if isinstance(node, ast.ClassDef)
    ]
    class_names = {node.name for node in classes}
    return {
        node.name: tuple(
            base.id
            for base in node.bases
            if isinstance(base, ast.Name) and base.id in class_names
        )
        for node in classes
    }


def _resolve_method(
    modname: str,
    class_name: str,
    attr: str,
    bases: dict[str, tuple[str, ...]],
    nodes: dict[str, CallGraphNode],
) -> str | None:
    """Find ``Class.attr`` in the class or its in-module ancestors."""
    seen: set[str] = set()
    stack = [class_name]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        candidate = f"{modname}.{current}.{attr}"
        if candidate in nodes:
            return candidate
        stack.extend(bases.get(current, ()))
    return None


def build_callgraph(modules: Sequence[SourceModule]) -> ProjectCallGraph:
    """Build the resolved call graph over the scanned modules."""
    graph = ProjectCallGraph()
    per_module: list[tuple[SourceModule, str, dict[str, FunctionEffects]]] = []
    for module in modules:
        modname = module_name(module.path)
        effects = module_effects(module)
        per_module.append((module, modname, effects))
        for qualname, summary in effects.items():
            key = f"{modname}.{qualname}"
            graph.nodes[key] = CallGraphNode(key, module, summary)

    for module, modname, effects in per_module:
        imports = module.derived(import_table)
        bases = module.derived(_in_module_bases)
        for qualname, summary in effects.items():
            key = f"{modname}.{qualname}"
            resolved = graph.edges.setdefault(key, set())
            for call in summary.calls:
                target = _resolve_call(
                    call, modname, qualname, imports, bases, graph.nodes
                )
                if target is not None:
                    resolved.add(target)
    return graph


def cached_callgraph(
    modules: Sequence[SourceModule], context: object | None = None
) -> ProjectCallGraph:
    """The call graph for ``modules``, memoized on the project context.

    Several project rules (R302/R402/R1001/R1002/R1101) each need the
    graph for the same scanned tree within one lint run; the shared
    :class:`~repro.analysis.project.ProjectContext` instance outlives
    them all, so it carries the cache.  Without a context this is just
    :func:`build_callgraph`.
    """
    return context_cached(
        context, "_callgraph_cache", modules, lambda: build_callgraph(modules)
    )


class CallSiteResolver:
    """Resolve textual call keys of one module into graph node keys.

    The graph's edges only say *that* a function calls a target; the
    taint engine needs to resolve *individual call expressions* while
    walking a body.  This wraps the same resolution tables the graph
    builder used (import table, in-module bases): both read the copies
    kept in the module's index, so they agree exactly on what resolves.
    """

    def __init__(self, graph: ProjectCallGraph, module: SourceModule) -> None:
        self._modname = module_name(module.path)
        self._imports = module.derived(import_table)
        self._bases = module.derived(_in_module_bases)
        self._nodes = graph.nodes

    def resolve(self, call: str, caller_qualname: str = "") -> str | None:
        """Graph key for a textual call target, or None if unresolved."""
        return _resolve_call(
            call, self._modname, caller_qualname, self._imports,
            self._bases, self._nodes,
        )


def _resolve_call(
    call: str,
    modname: str,
    caller_qualname: str,
    imports: dict[str, str],
    bases: dict[str, tuple[str, ...]],
    nodes: dict[str, CallGraphNode],
) -> str | None:
    parts = call.split(".")
    head, rest = parts[0], parts[1:]

    # self.f() / cls.f(): a method of the enclosing (or base) class.
    if head in ("self", "cls") and len(rest) == 1:
        class_name = _class_of(caller_qualname)
        if class_name is not None:
            return _resolve_method(modname, class_name, rest[0], bases, nodes)
        return None

    # Bare name: same-module function or class, else a from-import.
    if not rest:
        local = f"{modname}.{head}"
        if local in nodes:
            return local
        target = imports.get(head)
        if target is not None and target in nodes:
            return target
        return None

    # alias.f / alias.sub.f where the alias is an imported project module.
    target = imports.get(head)
    if target is None:
        # Same-module class attribute: ClassName.method().
        candidate = f"{modname}.{call}"
        return candidate if candidate in nodes else None
    candidate = f"{target}." + ".".join(rest)
    if candidate in nodes:
        return candidate
    return None
