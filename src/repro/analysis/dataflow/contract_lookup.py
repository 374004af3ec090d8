"""Cross-module calls, answered by the callee's contract alone.

The module-local engine
(:class:`~repro.analysis.dataflow.engine.ModuleIntervals`) resolves
calls to the functions of its own module.  :class:`ContractLookup`
resolves the rest — an imported function, or a method call
devirtualized by its project-unique name — and answers each with the
callee's ``@requires``/``@ensures`` clauses, as a
:class:`~repro.analysis.dataflow.engine.RemoteCallee`.  An uncontracted
callee stays TOP: no return interval is inferred from a body, so a
module is analyzed at most once.  The known imprecision is documented
in ``docs/static_analysis.md`` ("Cross-module calls: contracts only").

Only the modules :func:`needs_intervals` names, those whose analysis
some rule or ``--prove`` reads, get one.
"""

from __future__ import annotations

import ast
from typing import Sequence

from repro.analysis.callgraph import CallSiteResolver, cached_callgraph
from repro.analysis.dataflow.engine import (
    FunctionContract,
    ModuleIntervals,
    RemoteCallee,
    _contract_of,
    _param_names,
    module_intervals,
)
from repro.analysis.dataflow.intervals import Interval
from repro.analysis.effects import _callee_key, defined_functions
from repro.analysis.project import context_cached
from repro.analysis.source import SourceModule, module_name

__all__ = [
    "ESTIMATOR_STACK",
    "ContractLookup",
    "contract_lookup",
    "in_estimator_stack",
    "needs_intervals",
]

#: Packages the estimator contract covers, where R101/R102/R1302/R1303
#: look.
ESTIMATOR_STACK = (
    ("repro", "core"),
    ("repro", "estimators"),
    ("repro", "frequency"),
    ("repro", "sketches"),
    ("repro", "sampling"),
)


def in_estimator_stack(module: SourceModule) -> bool:
    """True when ``module`` lives in one of the :data:`ESTIMATOR_STACK` packages."""
    return any(module.in_package(*parts) for parts in ESTIMATOR_STACK)


def needs_intervals(module: SourceModule) -> bool:
    """True when a query reads ``module``'s interval analysis.

    R101/R102/R1302/R1303 query the estimator stack; R1301, R702 and
    ``--prove`` query functions with a ``@requires``/``@ensures``
    decorator, and the lookup reads the class facts of a contracted
    method's module.  No other module gets an analysis.
    """
    return in_estimator_stack(module) or module.derived(_has_contracts)


def _has_contracts(module: SourceModule) -> bool:
    return any(_contract_of(func) for _qualname, func in defined_functions(module))


class ContractLookup:
    """Call-site resolution over one scanned tree, answered by contracts."""

    def __init__(
        self, modules: Sequence[SourceModule], context: object | None = None
    ) -> None:
        graph = cached_callgraph(modules, context)
        self._resolvers: dict[str, CallSiteResolver] = {}
        #: key -> (module, qualname, node); one entry per project function.
        self.functions: dict[
            str, tuple[SourceModule, str, ast.FunctionDef | ast.AsyncFunctionDef]
        ] = {}
        self._contracts: dict[str, FunctionContract] = {}
        #: method name -> keys of class methods bearing it (devirt index).
        self._methods_by_name: dict[str, list[str]] = {}
        #: Paths of the modules whose analysis is being built right now:
        #: on a cycle of calls between modules they contribute no
        #: ``self.<attr>`` facts.
        self._building: set[str] = set()
        for module in modules:
            modname = module_name(module.path)
            self._resolvers[module.path] = CallSiteResolver(graph, module)
            for qualname, func in defined_functions(module):
                if "<locals>" in qualname:
                    continue  # nested functions never resolve cross-module
                key = f"{modname}.{qualname}"
                self.functions[key] = (module, qualname, func)
                self._contracts[key] = _contract_of(func)
                if "." in qualname:
                    method = qualname.rsplit(".", 1)[1]
                    self._methods_by_name.setdefault(method, []).append(key)

    def analysis(self, module: SourceModule) -> ModuleIntervals | None:
        """``module``'s interval analysis, built with this lookup.

        None while that analysis is itself being built, which only a
        cycle of contracted-method calls between modules can ask for.
        """
        if module.path in self._building:
            return None
        self._building.add(module.path)
        try:
            return module_intervals(module, self.lookup)
        finally:
            self._building.discard(module.path)

    def lookup(self, module: SourceModule, call: ast.Call) -> RemoteCallee | None:
        """The contract of the project function ``call`` resolves to.

        None when the call does not resolve, or when its callee declares
        no ``@ensures`` clause: nothing is then known of the result.
        """
        key = self.resolve(module, call)
        if key is None:
            return None
        contract = self._contracts[key]
        if not contract.ensures:
            return None
        _module, qualname, func = self.functions[key]
        return RemoteCallee(
            qualname=key,
            param_names=tuple(_param_names(func)),
            contract=contract,
            self_attrs=self._self_attrs(key, qualname),
        )

    def resolve(self, module: SourceModule, call: ast.Call) -> str | None:
        """Key of the project function a call site targets, if unique.

        Tries the textual call-graph resolver first (imported names,
        module-qualified calls), then unique-name devirtualization for
        method calls on non-``self`` receivers.
        """
        dotted = _callee_key(call.func)
        if dotted is not None and not dotted.startswith(("self.", "cls.")):
            resolver = self._resolvers.get(module.path)
            if resolver is not None:
                target = resolver.resolve(dotted)
                if target is not None and target in self.functions:
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
        compatible = [
            key for key in candidates if _accepts(self.functions[key][2], call)
        ]
        if len(compatible) == 1:
            return compatible[0]
        return None

    def _self_attrs(self, key: str, qualname: str) -> dict[str, Interval]:
        """``self.<attr>`` facts of a method's class, from its module."""
        if "." not in qualname:
            return {}
        analysis = self.analysis(self.functions[key][0])
        if analysis is None:
            return {}
        return analysis.class_attr_facts(qualname.rsplit(".", 1)[0])


def _accepts(func: ast.FunctionDef | ast.AsyncFunctionDef, call: ast.Call) -> bool:
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


def contract_lookup(
    modules: Sequence[SourceModule], context: object | None = None
) -> ContractLookup:
    """Build (or fetch the cached) :class:`ContractLookup` for a scan.

    Building it also builds, through it and in path order, the interval
    analysis of each module :func:`needs_intervals` names, so each later
    :func:`~repro.analysis.dataflow.engine.module_intervals` call — the
    rules', ``--prove``'s — is a cache hit that resolves cross-module
    calls.  Like :func:`~repro.analysis.callgraph.cached_callgraph`, the
    shared project context carries the cache.
    """

    def build() -> ContractLookup:
        lookup = ContractLookup(modules, context)
        for module in sorted(modules, key=lambda module: module.path):
            if needs_intervals(module):
                lookup.analysis(module)
        return lookup

    return context_cached(context, "_contract_lookup_cache", modules, build)
