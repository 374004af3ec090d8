"""Interprocedural taint propagation: sources → returns, over the call graph.

This is the whole-program half of the determinism auditor (rules R1001
and R1002).  The lattice is :mod:`repro.analysis.dataflow.taint`; the
sources are classified by
:func:`~repro.analysis.effects.classify_call` and
:func:`~repro.analysis.effects.classify_expr`; call resolution reuses
the project call graph's tables
(:class:`~repro.analysis.callgraph.CallSiteResolver`), so a taint chain
and a call chain can never disagree about what resolves.

Per function the engine computes a *summary*:

* ``return_taint`` — concrete nondeterminism labels that may reach the
  return value (or a ``yield``), and
* ``param_flow`` — which parameters may flow into the return value, so
  a caller's argument taint propagates through the callee precisely
  (``_splitmix64(values)`` returns a mix of ``values``; calling it with
  hash-order-tainted data taints the result, calling it with clean data
  does not).

Propagation is flow-insensitive within a body (one join per name over
all assignments, iterated to a fixpoint) and summary-based across
bodies (a worklist over the resolved call edges; the label powerset is
finite, so both fixpoints terminate).  Sanitizers are expression-level:
``sorted(...)``/``min``/``max``/``len``/``any``/``all`` erase
:data:`~repro.analysis.dataflow.taint.SET_ORDER` because their results
do not depend on iteration order (``sum`` deliberately does **not** —
float summation order is exactly R1002's concern), and seeded RNG
construction is simply never a source.

Known false negatives, by design (documented in
``docs/static_analysis.md``): control-flow ("implicit") taint — a
branch condition on ``time.time()`` selecting between clean constants —
and taint smuggled through object attributes across call boundaries.
Both directions of imprecision are chosen so every *report* traces to a
real data-flow chain.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.callgraph import (
    CallSiteResolver,
    ProjectCallGraph,
    cached_callgraph,
)
from repro.analysis.dataflow.taint import (
    CLEAN,
    ORDER_LABELS,
    Taint,
    describe,
    param_label,
    split_params,
)
from repro.analysis.effects import (
    _callee_key,
    classify_call,
    classify_expr,
    defined_functions,
)
from repro.analysis.project import context_cached
from repro.analysis.source import SourceModule, module_name

__all__ = ["FunctionTaint", "ProjectTaint", "project_taint"]

#: Builtins whose result's element order does not depend on the input's
#: iteration order — the sanctioned SET_ORDER sanitizers.
_ORDER_SANITIZERS = frozenset({"sorted", "len", "min", "max", "any", "all"})

#: Constructors whose result *introduces* arbitrary iteration order.
_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})

#: Inner-pass cap for the per-body env fixpoint (joins are monotone and
#: the lattice is tiny, so 2-3 passes suffice in practice).
_ENV_PASSES = 10

#: The nodes a bind pass reads: each binds a target.
_BINDING_NODES = (
    ast.Assign, ast.AnnAssign, ast.AugAssign, ast.For, ast.withitem,
    ast.NamedExpr, ast.comprehension,
)


@dataclass(frozen=True)
class FunctionTaint:
    """Taint summary of one project function."""

    #: Graph key, ``repro.sketches.hashing.hash64``.
    key: str
    qualname: str
    module: SourceModule
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Concrete labels that may reach the return value.
    return_taint: Taint = CLEAN
    #: Parameter names whose taint may flow into the return value.
    param_flow: frozenset[str] = frozenset()


class ProjectTaint:
    """Whole-tree taint summaries with expression-level queries."""

    def __init__(
        self, modules: Sequence[SourceModule], context: object | None = None
    ) -> None:
        self.graph: ProjectCallGraph = cached_callgraph(modules, context)
        self._resolvers: dict[str, CallSiteResolver] = {}
        self._module_envs: dict[str, dict[str, Taint]] = {}
        self._functions: dict[str, tuple[SourceModule, str, ast.FunctionDef | ast.AsyncFunctionDef]] = {}
        self.summaries: dict[str, FunctionTaint] = {}
        self._envs: dict[str, dict[str, Taint]] = {}
        #: Scope node -> its binding nodes, in scope order.
        self._bindings: dict[ast.AST, tuple[ast.AST, ...]] = {}

        for module in modules:
            modname = module_name(module.path)
            self._resolvers[module.path] = CallSiteResolver(self.graph, module)
            for qualname, func in defined_functions(module):
                key = f"{modname}.{qualname}"
                self._functions[key] = (module, qualname, func)
                self.summaries[key] = FunctionTaint(
                    key=key, qualname=qualname, module=module, node=func
                )
        # Module envs after the resolvers exist (top-level code can
        # call project functions, resolved against empty summaries —
        # harmlessly imprecise for import-time constants).
        for module in modules:
            self._module_envs[module.path] = self._module_env(module)
        self._fixpoint()

    # -- public queries ----------------------------------------------
    def taint_of(self, key: str) -> Taint:
        """Return-value taint of a function (CLEAN when unknown)."""
        summary = self.summaries.get(key)
        return summary.return_taint if summary is not None else CLEAN

    def eval_argument(self, key: str, expr: ast.expr) -> Taint:
        """Taint of an expression at its use inside function ``key``.

        Parameter flow is stripped: from inside the function the
        caller's arguments are unknown, so parameter-derived taint is
        reported at the call sites instead (under-report, never
        hallucinate).
        """
        info = self._functions.get(key)
        if info is None:
            return CLEAN
        module, qualname, _func = info
        env = self._envs.get(key, {})
        taint = self._analyzer(module, qualname, env).eval(expr)
        real, _params = split_params(taint)
        return real

    def evidence(
        self, key: str, labels: frozenset[str], limit: int = 3
    ) -> list[str]:
        """Human-readable source sites behind a function's taint.

        Lists direct sources inside the body whose label intersects
        ``labels``, then tainted project callees — enough to make every
        finding a readable chain without storing per-label provenance
        in the lattice.
        """
        info = self._functions.get(key)
        if info is None:
            return []
        module, qualname, func = info
        resolver = self._resolvers[module.path]
        found: list[str] = []
        seen: set[str] = set()

        def add(entry: str) -> None:
            if entry not in seen and len(found) < limit:
                seen.add(entry)
                found.append(entry)

        for node in module.index.scope(func):
            if isinstance(node, ast.Call):
                site = classify_call(module, node)
                if site is not None and site.label in labels:
                    add(f"{site.reason} (line {site.line})")
                    continue
                dotted = _callee_key(node.func)
                if dotted is not None:
                    target = resolver.resolve(dotted, qualname)
                    if target is not None:
                        callee = self.summaries.get(target)
                        if callee is not None and callee.return_taint & labels:
                            add(
                                f"calls {target} which returns "
                                f"{describe(callee.return_taint & labels)}"
                                f"-tainted data (line {node.lineno})"
                            )
            elif isinstance(node, ast.expr):
                site = classify_expr(module, node)
                if site is not None and site.label in labels:
                    add(f"{site.reason} (line {site.line})")
        return found

    # -- construction internals --------------------------------------
    def _module_env(self, module: SourceModule) -> dict[str, Taint]:
        """Taint of module-level names, from the module scope's bindings.

        A clean name is kept too: it shadows an import of the same name.
        """
        env: dict[str, Taint] = {}
        self._analyzer(module, "", env).bind(self._binding_nodes(module, module.tree))
        return env

    def _binding_nodes(
        self, module: SourceModule, scope: ast.AST
    ) -> tuple[ast.AST, ...]:
        """The nodes of ``scope``'s own scope that bind a target, computed once."""
        if scope not in self._bindings:
            self._bindings[scope] = tuple(
                node
                for node in module.index.scope(scope)
                if isinstance(node, _BINDING_NODES)
            )
        return self._bindings[scope]

    def _analyzer(
        self, module: SourceModule, qualname: str, env: dict[str, Taint]
    ) -> "_BodyAnalyzer":
        return _BodyAnalyzer(
            env=env,
            module_env=self._module_envs.get(module.path, {}),
            module=module,
            resolver=self._resolvers[module.path],
            summaries=self.summaries,
            caller_qualname=qualname,
        )

    def _fixpoint(self) -> None:
        """Worklist iteration of summaries over resolved call edges."""
        dependents: dict[str, set[str]] = {}
        for caller, callees in self.graph.edges.items():
            for callee in callees:
                dependents.setdefault(callee, set()).add(caller)
        worklist = sorted(self._functions)
        queued = set(worklist)
        while worklist:
            key = worklist.pop()
            queued.discard(key)
            previous = self.summaries[key]
            updated = self._summarize(key)
            if (
                updated.return_taint == previous.return_taint
                and updated.param_flow == previous.param_flow
            ):
                continue
            self.summaries[key] = updated
            for caller in sorted(dependents.get(key, ())):
                if caller not in queued:
                    queued.add(caller)
                    worklist.append(caller)

    def _summarize(self, key: str) -> FunctionTaint:
        module, qualname, func = self._functions[key]
        env: dict[str, Taint] = {}
        for arg in _all_params(func):
            env[arg] = frozenset({param_label(arg)})
        analyzer = self._analyzer(module, qualname, env)
        analyzer.bind(self._binding_nodes(module, func))
        returned = CLEAN
        for node in module.index.scope(func):
            if isinstance(node, ast.Return) and node.value is not None:
                returned |= analyzer.eval(node.value)
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                if node.value is not None:
                    returned |= analyzer.eval(node.value)
        real, params = split_params(returned)
        self._envs[key] = env
        return FunctionTaint(
            key=key,
            qualname=qualname,
            module=module,
            node=func,
            return_taint=real,
            param_flow=params,
        )


def _all_params(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = func.args
    names = [
        arg.arg
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    ]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return names


def _positional_params(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[str]:
    args = func.args
    return [arg.arg for arg in (*args.posonlyargs, *args.args)]


@dataclass
class _BodyAnalyzer:
    """Flow-insensitive taint evaluation over one body's environment."""

    env: dict[str, Taint]
    module_env: dict[str, Taint]
    module: SourceModule
    resolver: CallSiteResolver
    summaries: dict[str, FunctionTaint]
    caller_qualname: str
    _changed: bool = field(default=False, repr=False)

    # -- environment construction ------------------------------------
    def bind(self, bindings: tuple[ast.AST, ...]) -> None:
        """Bind ``bindings``' targets, pass after pass, until the env is stable."""
        for _ in range(_ENV_PASSES):
            if not self.bind_pass(bindings):
                break

    def bind_pass(self, bindings: tuple[ast.AST, ...]) -> bool:
        """One monotone pass over a scope's binding nodes; True if the env changed."""
        self._changed = False
        for node in bindings:
            if isinstance(node, ast.Assign):
                taint = self.eval(node.value)
                for target in node.targets:
                    self._bind_target(target, taint)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._bind_target(node.target, self.eval(node.value))
            elif isinstance(node, ast.AugAssign):
                self._bind_target(node.target, self.eval(node.value))
            elif isinstance(node, ast.For):
                self._bind_target(node.target, self._element(node.iter))
            elif isinstance(node, ast.withitem):
                if node.optional_vars is not None:
                    self._bind_target(
                        node.optional_vars, self.eval(node.context_expr)
                    )
            elif isinstance(node, ast.NamedExpr):
                self._bind_target(node.target, self.eval(node.value))
            elif isinstance(node, ast.comprehension):
                self._bind_target(node.target, self._element(node.iter))
        return self._changed

    def _bind_target(self, target: ast.expr, taint: Taint) -> None:
        if isinstance(target, ast.Name):
            self._join_name(target.id, taint)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, taint)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, taint)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            # Writing a tainted element taints the whole container.
            root: ast.expr = target
            while isinstance(root, (ast.Subscript, ast.Attribute)):
                root = root.value
            if isinstance(root, ast.Name):
                self._join_name(root.id, taint)

    def _join_name(self, name: str, taint: Taint) -> None:
        if not taint:
            self.env.setdefault(name, CLEAN)
            return
        current = self.env.get(name, CLEAN)
        joined = current | taint
        if joined != current:
            self.env[name] = joined
            self._changed = True

    def _element(self, iterable: ast.expr) -> Taint:
        """Taint of one element drawn from iterating ``iterable``."""
        return self.eval(iterable)

    # -- expression evaluation ---------------------------------------
    def eval(self, node: ast.expr | None) -> Taint:  # noqa: C901 - dispatch
        if node is None or isinstance(node, ast.Constant):
            return CLEAN
        if isinstance(node, ast.Name):
            local = self.env.get(node.id)
            if local is not None:
                return local
            if node.id in self.module_env:
                return self.module_env[node.id]
            # Unbound here, so an imported name (``from os import environ``).
            return self._source(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            return self._source(node) or self.eval(node.value)
        if isinstance(node, ast.Subscript):
            return self.eval(node.value) | self.eval(node.slice)
        if isinstance(node, ast.Slice):
            return self._join_all([node.lower, node.upper, node.step])
        if isinstance(node, ast.BinOp):
            return self.eval(node.left) | self.eval(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.BoolOp):
            return self._join_all(node.values)
        if isinstance(node, ast.Compare):
            # Comparison/membership results do not depend on iteration
            # order (the *contents* are deterministic), so order labels
            # drop here; value labels flow through.
            taint = self.eval(node.left) | self._join_all(node.comparators)
            return taint - ORDER_LABELS
        if isinstance(node, ast.IfExp):
            # Data flow only: the test is control dependence (documented
            # false negative), the branches are the value.
            return self.eval(node.body) | self.eval(node.orelse)
        if isinstance(node, (ast.List, ast.Tuple)):
            return self._join_all(node.elts)
        if isinstance(node, ast.Set):
            return self._join_all(node.elts) | ORDER_LABELS
        if isinstance(node, ast.Dict):
            keys = [key for key in node.keys if key is not None]
            return self._join_all(keys) | self._join_all(node.values)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self.eval(node.elt) | self._comp_iters(node)
        if isinstance(node, ast.SetComp):
            return self.eval(node.elt) | self._comp_iters(node) | ORDER_LABELS
        if isinstance(node, ast.DictComp):
            return (
                self.eval(node.key)
                | self.eval(node.value)
                | self._comp_iters(node)
            )
        if isinstance(node, ast.JoinedStr):
            return self._join_all(node.values)
        if isinstance(node, ast.FormattedValue):
            return self.eval(node.value)
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.Lambda):
            # A lambda argument carries its body's taint to the callee
            # (``memoized(key, lambda: build(...))`` sees the build).
            return self.eval(node.body)
        if isinstance(node, (ast.Await, ast.YieldFrom, ast.Yield)):
            return self.eval(node.value) if node.value is not None else CLEAN
        if isinstance(node, ast.NamedExpr):
            return self.eval(node.value)
        return CLEAN

    def _source(self, node: ast.expr) -> Taint:
        """The label of a non-call source expression, else CLEAN."""
        site = classify_expr(self.module, node)
        return frozenset({site.label}) if site is not None else CLEAN

    def _join_all(self, nodes: Sequence[ast.expr | None]) -> Taint:
        taint = CLEAN
        for node in nodes:
            taint |= self.eval(node)
        return taint

    def _comp_iters(
        self, node: ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp
    ) -> Taint:
        return self._join_all([generator.iter for generator in node.generators])

    # -- calls --------------------------------------------------------
    def _eval_call(self, node: ast.Call) -> Taint:
        args_taint = self._join_all(node.args) | self._join_all(
            [keyword.value for keyword in node.keywords]
        )
        source = classify_call(self.module, node)
        if source is not None:
            return args_taint | {source.label}

        func = node.func
        name = func.id if isinstance(func, ast.Name) else None
        if name in _ORDER_SANITIZERS:
            return args_taint - ORDER_LABELS
        if name in _SET_CONSTRUCTORS:
            return args_taint | ORDER_LABELS

        dotted = _callee_key(func)
        if dotted is not None:
            target = self.resolver.resolve(dotted, self.caller_qualname)
            if target is not None:
                summary = self.summaries.get(target)
                if summary is not None:
                    return self._apply_summary(node, summary)

        # Unresolved call: conservatively propagate the data that went
        # in (receiver and arguments).  External pure functions cannot
        # *remove* dependence on a nondeterministic input; results that
        # are discarded taint nothing.
        receiver = (
            self.eval(func.value) if isinstance(func, ast.Attribute) else CLEAN
        )
        if name is not None:
            receiver |= self.env.get(name, CLEAN)
        return args_taint | receiver

    def _apply_summary(self, node: ast.Call, summary: FunctionTaint) -> Taint:
        """Callee summary + caller argument taint mapped through params."""
        taint = summary.return_taint
        if not summary.param_flow:
            return taint
        params = _positional_params(summary.node)
        offset = 0
        receiver: ast.expr | None = None
        if (
            isinstance(node.func, ast.Attribute)
            and params
            and params[0] in ("self", "cls")
        ):
            offset = 1
            receiver = node.func.value
        if receiver is not None and params[0] in summary.param_flow:
            taint |= self.eval(receiver)
        star_args = any(isinstance(arg, ast.Starred) for arg in node.args)
        kw_splat = any(keyword.arg is None for keyword in node.keywords)
        if star_args or kw_splat:
            # Can't line up arguments; join everything that flows in.
            return (
                taint
                | self._join_all(node.args)
                | self._join_all([keyword.value for keyword in node.keywords])
            )
        for position, arg in enumerate(node.args):
            index = offset + position
            if index < len(params) and params[index] in summary.param_flow:
                taint |= self.eval(arg)
            elif index >= len(params) and summary.param_flow:
                # Landed in *args; be conservative about the overflow.
                taint |= self.eval(arg)
        for keyword in node.keywords:
            if keyword.arg in summary.param_flow:
                taint |= self.eval(keyword.value)
        return taint


def project_taint(
    modules: Sequence[SourceModule], context: object | None = None
) -> ProjectTaint:
    """Build (or fetch the cached) :class:`ProjectTaint` for a scan.

    R1001 and R1002 both consume the same summaries within one lint
    run; like :func:`~repro.analysis.callgraph.cached_callgraph`, the
    shared project context carries the cache.
    """
    return context_cached(
        context, "_taint_cache", modules, lambda: ProjectTaint(modules, context)
    )
