"""Interprocedural numeric-bounds summaries over the project call graph.

This is the whole-program half of the numeric prover, mirroring
:mod:`repro.analysis.dataflow.taintflow` for the interval domain.  Per
project function the engine computes a :class:`FunctionBounds` summary —
the join of the return-value intervals over every reachable ``return``
(with per-position element intervals for tuple returns, and a syntactic
NaN-producer flag for R1304) — and propagates the summaries to a
fixpoint over the reverse call edges of the shared
:func:`~repro.analysis.callgraph.cached_callgraph`.

:class:`ProjectBounds` then acts as the *summary oracle* the
module-local engine consults
(:meth:`~repro.analysis.dataflow.engine.ModuleIntervals._resolve_call_view`):
a call the local module cannot resolve — an imported function, or a
method call devirtualized by its project-unique name — is answered with
a :class:`~repro.analysis.dataflow.engine.RemoteCallee`.  Explicit
``@requires``/``@ensures`` contracts always win; only uncontracted
callees are answered from the inferred summary, and the engine marks
proofs that leaned on one as ``via: summary`` in the ``--prove`` table.

Termination: summaries of functions on call-graph cycles (recursion,
mutual recursion) are updated through :meth:`Interval.widen` once a
function has changed more than once, and every module's re-analysis
count is capped — the lattice jumps to the widening thresholds instead
of descending an infinite chain.

Known imprecision, by design (documented in ``docs/static_analysis.md``):

* Devirtualization requires the method name to be *project-unique*
  after arity filtering; two same-name same-shape methods make the call
  unresolvable (sound: the proof simply does not go through).  External
  subclasses of project classes are invisible — the closed-world
  assumption of a self-contained research codebase.
* Summaries are context-insensitive: one interval per function, joined
  over all call sites.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.callgraph import (
    CallSiteResolver,
    ProjectCallGraph,
    cached_callgraph,
    module_name,
)
from repro.analysis.dataflow.engine import (
    FunctionAnalysis,
    FunctionContract,
    ModuleIntervals,
    RemoteCallee,
    _contract_of,
    _param_names,
)
from repro.analysis.dataflow.intervals import TOP, Interval
from repro.analysis.effects import _callee_key, defined_functions
from repro.analysis.project import context_cached
from repro.analysis.source import SourceModule

__all__ = [
    "FunctionBounds",
    "ProjectBounds",
    "project_bounds",
    "nan_producer_reason",
]

#: A module is re-analyzed at most this many times before its summaries
#: are frozen — the backstop under widening for pathological cycles.
_MAX_MODULE_PASSES = 5

#: After a function's summary has changed this many times, further
#: updates go through :meth:`Interval.widen` instead of replacement.
_WIDEN_AFTER = 2

#: Calls whose result may be NaN when the argument's domain is not
#: proved (``np.log(0 or negative)`` is a silent ``nan``/``-inf``).
_NAN_DOMAIN_CALLS = frozenset({"log", "log2", "log10", "log1p", "sqrt"})

#: Calls that *sanitize* NaN: their result is NaN-free (or the call is
#: itself the guard a NaN check hangs off).
_NAN_SANITIZERS = frozenset({"isnan", "isfinite", "nan_to_num", "isclose"})


@dataclass(frozen=True)
class FunctionBounds:
    """Bounds summary of one project function."""

    #: Graph key, ``repro.core.gee.gee_coefficient``.
    key: str
    qualname: str
    module: SourceModule
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Join of the return-value interval over all reachable returns.
    interval: Interval = TOP
    #: Per-position intervals for tuple returns (positions returned by
    #: every site only).
    elements: dict[int, Interval] = field(default_factory=dict)
    #: True when a returned expression syntactically reaches a NaN
    #: producer with no sanitizer in scope (R1304 fuel).
    may_nan: bool = False

    @property
    def is_trivial(self) -> bool:
        return self.interval.is_top and not self.elements and not self.may_nan


class ProjectBounds:
    """Whole-tree bounds summaries + the engine's call-resolution oracle.

    Construction analyzes every module with the oracle already
    installed, then iterates a worklist over modules whose functions'
    summaries changed, re-enqueueing *dynamic* dependents — modules
    recorded at lookup time, so devirtualized method calls (invisible
    to the textual call graph) still converge.
    """

    def __init__(
        self, modules: Sequence[SourceModule], context: object | None = None
    ) -> None:
        self.graph: ProjectCallGraph = cached_callgraph(modules, context)
        self._modules: dict[str, SourceModule] = {}
        self._resolvers: dict[str, CallSiteResolver] = {}
        self._analyses: dict[str, ModuleIntervals] = {}
        #: key -> (module, qualname, node); one entry per project function.
        self._functions: dict[
            str, tuple[SourceModule, str, ast.FunctionDef | ast.AsyncFunctionDef]
        ] = {}
        self._contracts: dict[str, FunctionContract] = {}
        self.summaries: dict[str, FunctionBounds] = {}
        self._change_counts: dict[str, int] = {}
        #: method name -> keys of class methods bearing it (devirt index).
        self._methods_by_name: dict[str, list[str]] = {}
        #: summary key -> module paths whose analysis consulted it.
        self._dependents: dict[str, set[str]] = {}
        #: module path being analyzed right now (dependency recording).
        self._active_path: str | None = None

        for module in modules:
            modname = module_name(module.path)
            self._modules[module.path] = module
            self._resolvers[module.path] = CallSiteResolver(self.graph, module)
            for qualname, func in defined_functions(module):
                if "<locals>" in qualname:
                    continue  # nested functions never resolve cross-module
                key = f"{modname}.{qualname}"
                self._functions[key] = (module, qualname, func)
                self._contracts[key] = _contract_of(func)
                self.summaries[key] = FunctionBounds(
                    key=key, qualname=qualname, module=module, node=func
                )
                if "." in qualname:
                    method = qualname.rsplit(".", 1)[1]
                    self._methods_by_name.setdefault(method, []).append(key)
        self._fixpoint(modules)

    # -- public queries ------------------------------------------------
    def bounds_of(self, key: str) -> FunctionBounds | None:
        """Summary for a graph key, or None for unknown functions."""
        return self.summaries.get(key)

    def module_analysis(self, module: SourceModule) -> ModuleIntervals | None:
        """The oracle-equipped interval analysis of one module."""
        return self._analyses.get(module.path)

    def install(self) -> None:
        """Publish the converged analyses into the per-module cache.

        :func:`~repro.analysis.dataflow.engine.module_intervals` serves
        from ``module._interval_analysis``, so rules and ``--prove``
        transparently gain interprocedural resolution once this runs.
        """
        for path, analysis in self._analyses.items():
            module = self._modules[path]
            module._interval_analysis = analysis  # type: ignore[attr-defined]

    def evidence(self, key: str, limit: int = 4) -> list[str]:
        """The call chain a summary's NaN flag (or bound) rests on.

        Walks the summary's return expressions for the direct producer,
        then project callees whose own summaries carry the flag — each
        entry names a concrete site, so a finding reads as a chain.
        """
        info = self._functions.get(key)
        if info is None:
            return []
        module, _qualname, func = info
        found: list[str] = []
        seen: set[str] = set()

        def add(entry: str) -> None:
            if entry not in seen and len(found) < limit:
                seen.add(entry)
                found.append(entry)

        analysis = self._function_analysis(key)
        defs = analysis.defs if analysis is not None else {}
        for stmt in module.index.walk(func):
            if not (isinstance(stmt, ast.Return) and stmt.value is not None):
                continue
            reason = nan_producer_reason(stmt.value, defs)
            if reason is not None:
                add(f"{reason} (line {stmt.value.lineno}, {module.path})")
            for call in ast.walk(stmt.value):
                if not isinstance(call, ast.Call):
                    continue
                target = self._resolve_site(module, call)
                if target is None or target == key:
                    continue
                callee = self.summaries.get(target)
                if callee is not None and callee.may_nan:
                    add(
                        f"calls {target} which may return NaN "
                        f"(line {call.lineno})"
                    )
                    found.extend(
                        entry
                        for entry in self.evidence(target, limit - len(found))
                        if entry not in seen
                    )
        return found[:limit]

    # -- oracle protocol (duck-typed; consumed by ModuleIntervals) ----
    def lookup(self, module: SourceModule, call: ast.Call) -> RemoteCallee | None:
        """Resolve a call the local module could not, as a RemoteCallee.

        Tries the textual call-graph resolver first (imported names,
        module-qualified calls), then unique-name devirtualization for
        method calls on non-``self`` receivers.  Records the consulted
        summary as a dependency of the *asking* module so the fixpoint
        re-analyzes it when the summary moves.
        """
        key = self._resolve_site(module, call)
        if key is None:
            return None
        info = self._functions.get(key)
        if info is None:
            return None
        _module, qualname, func = info
        contract = self._contracts[key]
        if self._active_path is not None:
            self._dependents.setdefault(key, set()).add(self._active_path)
        if contract.ensures:
            return RemoteCallee(
                qualname=key,
                param_names=tuple(_param_names(func)),
                contract=contract,
                self_attrs=self._self_attrs(key, qualname),
            )
        summary = self.summaries.get(key)
        if summary is None or summary.is_trivial:
            return None
        return RemoteCallee(
            qualname=key,
            param_names=tuple(_param_names(func)),
            contract=FunctionContract(),
            summary=summary.interval,
            summary_elements=dict(summary.elements),
        )

    # -- call-site resolution -----------------------------------------
    def _resolve_site(self, module: SourceModule, call: ast.Call) -> str | None:
        dotted = _callee_key(call.func)
        if dotted is not None and not dotted.startswith(("self.", "cls.")):
            resolver = self._resolvers.get(module.path)
            if resolver is not None:
                target = resolver.resolve(dotted)
                if target is not None and target in self._functions:
                    return target
        if isinstance(call.func, ast.Attribute) and not (
            isinstance(call.func.value, ast.Name)
            and call.func.value.id in ("self", "cls")
        ):
            return self._devirtualize(call)
        return None

    def _devirtualize(self, call: ast.Call) -> str | None:
        """Resolve ``receiver.method(...)`` by project-unique method name.

        Closed-world: among every class method named ``method`` in the
        tree, keep those whose signature accepts this call's argument
        shape (positional count within bounds, keywords known, no
        star-spread).  Exactly one survivor resolves; two or more —
        overrides, homonyms — make the call unresolvable, which is the
        sound direction.
        """
        assert isinstance(call.func, ast.Attribute)
        candidates = self._methods_by_name.get(call.func.attr, ())
        if not candidates:
            return None
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            return None
        if any(keyword.arg is None for keyword in call.keywords):
            return None
        compatible: list[str] = []
        for key in candidates:
            _module, _qualname, func = self._functions[key]
            if self._accepts(func, call):
                compatible.append(key)
        if len(compatible) == 1:
            return compatible[0]
        return None

    @staticmethod
    def _accepts(
        func: ast.FunctionDef | ast.AsyncFunctionDef, call: ast.Call
    ) -> bool:
        args = func.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        if positional and positional[0] in ("self", "cls"):
            positional = positional[1:]
        all_names = set(positional) | {a.arg for a in args.kwonlyargs}
        supplied = len(call.args)
        if supplied > len(positional) and args.vararg is None:
            return False
        for keyword in call.keywords:
            if keyword.arg not in all_names and args.kwarg is None:
                return False
        required = len(positional) - len(args.defaults)
        keyword_names = {keyword.arg for keyword in call.keywords}
        covered = supplied + len(keyword_names & set(positional[supplied:]))
        return covered >= required

    def _self_attrs(self, key: str, qualname: str) -> dict[str, Interval]:
        """``self.<attr>`` facts of the callee's class, when analyzed."""
        if "." not in qualname:
            return {}
        class_name = qualname.rsplit(".", 1)[0]
        module, _qualname, _func = self._functions[key]
        analysis = self._analyses.get(module.path)
        if analysis is None:
            return {}
        return dict(analysis.class_attr_facts(class_name))

    # -- fixpoint ------------------------------------------------------
    def _fixpoint(self, modules: Sequence[SourceModule]) -> None:
        passes: dict[str, int] = {path: 0 for path in self._modules}
        worklist: list[str] = sorted(self._modules)
        queued: set[str] = set(worklist)
        while worklist:
            path = worklist.pop(0)
            queued.discard(path)
            if passes[path] >= _MAX_MODULE_PASSES:
                continue
            passes[path] += 1
            changed = self._analyze_module(path)
            for key in changed:
                for dependent in sorted(self._dependents.get(key, ())):
                    if dependent not in queued:
                        queued.add(dependent)
                        worklist.append(dependent)

    def _analyze_module(self, path: str) -> list[str]:
        """(Re-)analyze one module; return keys whose summary changed."""
        module = self._modules[path]
        modname = module_name(module.path)
        self._active_path = path
        try:
            analysis = ModuleIntervals(module, oracle=self)
        finally:
            self._active_path = None
        self._analyses[path] = analysis
        changed: list[str] = []
        for function in analysis.function_analyses():
            key = f"{modname}.{function.qualname}"
            if key not in self._functions:
                continue
            previous = self.summaries[key]
            updated = self._summarize(key, analysis, function)
            if (
                updated.interval == previous.interval
                and updated.elements == previous.elements
                and updated.may_nan == previous.may_nan
            ):
                continue
            count = self._change_counts.get(key, 0) + 1
            self._change_counts[key] = count
            if count > _WIDEN_AFTER:
                updated = FunctionBounds(
                    key=key,
                    qualname=updated.qualname,
                    module=updated.module,
                    node=updated.node,
                    interval=previous.interval.widen(updated.interval),
                    elements={
                        position: previous.elements.get(position, TOP).widen(
                            interval
                        )
                        for position, interval in updated.elements.items()
                    },
                    may_nan=previous.may_nan or updated.may_nan,
                )
                if (
                    updated.interval == previous.interval
                    and updated.elements == previous.elements
                    and updated.may_nan == previous.may_nan
                ):
                    continue
            self.summaries[key] = updated
            changed.append(key)
        return changed

    def _summarize(
        self, key: str, analysis: ModuleIntervals, function: FunctionAnalysis
    ) -> FunctionBounds:
        module, qualname, node = self._functions[key]
        interval, elements = analysis.return_bounds(function)
        may_nan = False
        defs = function.defs
        for stmt in module.index.walk(node):
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                if nan_producer_reason(stmt.value, defs) is not None:
                    may_nan = True
                    break
                if self._returns_nan_callee(module, stmt.value, key):
                    may_nan = True
                    break
        return FunctionBounds(
            key=key,
            qualname=qualname,
            module=module,
            node=node,
            interval=interval,
            elements=elements,
            may_nan=may_nan,
        )

    def _returns_nan_callee(
        self, module: SourceModule, expr: ast.expr, caller: str
    ) -> bool:
        sanitized: set[int] = set()
        for call in ast.walk(expr):
            if isinstance(call, ast.Call):
                func = call.func
                name = (
                    func.attr
                    if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None)
                )
                if name in _NAN_SANITIZERS:
                    sanitized.update(id(node) for node in ast.walk(call))
        for call in ast.walk(expr):
            if not isinstance(call, ast.Call) or id(call) in sanitized:
                continue
            target = self._resolve_site(module, call)
            if target is None or target == caller:
                continue
            callee = self.summaries.get(target)
            if callee is not None and callee.may_nan:
                if self._active_path is not None:
                    self._dependents.setdefault(target, set()).add(
                        self._active_path
                    )
                return True
        return False

    def _function_analysis(self, key: str) -> FunctionAnalysis | None:
        module, qualname, _node = self._functions[key]
        analysis = self._analyses.get(module.path)
        if analysis is None:
            return None
        for function in analysis.function_analyses():
            if function.qualname == qualname:
                return function
        return None


# -- NaN producers (shared with rules.float_domain) --------------------
def nan_producer_reason(
    expr: ast.expr, defs: dict[str, ast.expr], depth: int = 0
) -> str | None:
    """Why ``expr`` may evaluate to NaN, or None when no producer found.

    Syntactic, with a bounded chase through single-assignment
    definitions (the engine's ``defs`` table): ``float("nan")`` /
    ``np.nan`` / ``math.nan`` literals, and ``0/0``-shaped constant
    divisions.  Unproven ``np.log``-style domains are judged by the
    caller (they need the interval engine); sanitized expressions —
    anything passed through ``nan_to_num`` or compared via ``isnan`` /
    ``isfinite`` — are the *callers'* job to suppress, keeping this
    predicate pure.
    """
    if depth > 6:
        return None
    if isinstance(expr, ast.Call):
        func = expr.func
        name = func.id if isinstance(func, ast.Name) else None
        attr = func.attr if isinstance(func, ast.Attribute) else None
        if attr in _NAN_SANITIZERS or name in _NAN_SANITIZERS:
            return None
        if (
            name == "float"
            and expr.args
            and isinstance(expr.args[0], ast.Constant)
            and isinstance(expr.args[0].value, str)
            and expr.args[0].value.lower() in ("nan", "-nan")
        ):
            return 'float("nan") literal'
        for arg in expr.args:
            reason = nan_producer_reason(arg, defs, depth + 1)
            if reason is not None:
                return reason
        return None
    if isinstance(expr, ast.Attribute):
        root = expr.value
        if (
            expr.attr == "nan"
            and isinstance(root, ast.Name)
            and root.id in ("np", "numpy", "math")
        ):
            return f"{root.id}.nan literal"
        return None
    if isinstance(expr, ast.Name):
        defined = defs.get(expr.id)
        if defined is not None:
            reason = nan_producer_reason(defined, defs, depth + 1)
            if reason is not None:
                return f"{expr.id!r} = {reason}"
        return None
    if isinstance(expr, ast.BinOp):
        if isinstance(expr.op, ast.Div) and _is_zero(expr.left, defs) and _is_zero(
            expr.right, defs
        ):
            return "0/0 division"
        for side in (expr.left, expr.right):
            reason = nan_producer_reason(side, defs, depth + 1)
            if reason is not None:
                return reason
        return None
    if isinstance(expr, (ast.Tuple, ast.List)):
        for element in expr.elts:
            reason = nan_producer_reason(element, defs, depth + 1)
            if reason is not None:
                return reason
        return None
    if isinstance(expr, ast.IfExp):
        for branch in (expr.body, expr.orelse):
            reason = nan_producer_reason(branch, defs, depth + 1)
            if reason is not None:
                return reason
        return None
    if isinstance(expr, ast.UnaryOp):
        return nan_producer_reason(expr.operand, defs, depth + 1)
    return None


def _is_zero(expr: ast.expr, defs: dict[str, ast.expr], depth: int = 0) -> bool:
    if depth > 6:
        return False
    if isinstance(expr, ast.Constant):
        return isinstance(expr.value, (int, float)) and float(expr.value) == 0.0  # reprolint: disable=R201 - detecting a literal 0.0 token, not comparing computed floats
    if isinstance(expr, ast.Name):
        defined = defs.get(expr.id)
        return defined is not None and _is_zero(defined, defs, depth + 1)
    return False


def project_bounds(
    modules: Sequence[SourceModule], context: object | None = None
) -> ProjectBounds:
    """Build (or fetch the cached) :class:`ProjectBounds` for a scan.

    Rules, ``--prove``, and the NaN rule all consume the same summaries
    within one lint run; like
    :func:`~repro.analysis.callgraph.cached_callgraph`, the shared
    project context carries the cache.  The converged analyses are
    installed into each module's interval cache as a side effect, so
    every later :func:`~repro.analysis.dataflow.engine.module_intervals`
    call resolves cross-module.
    """

    def build() -> ProjectBounds:
        engine = ProjectBounds(modules, context)
        engine.install()
        return engine

    return context_cached(context, "_bounds_cache", modules, build)
