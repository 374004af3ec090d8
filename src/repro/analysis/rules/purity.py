"""R401 — estimator purity: estimators are read-only functions of the profile.

The paper's guarantee framework treats an estimator as a pure map from a
frequency profile (f_1 … f_n, r, n) to an estimate; every experiment in
this repo relies on being able to evaluate many estimators against the
*same* :class:`~repro.frequency.profile.FrequencyProfile` object and on
``estimate()`` being idempotent.  An estimator that mutates its input,
writes module globals, or bypasses :func:`repro.core.base.clamp_estimate`
invalidates those comparisons silently — the second estimator in the loop
sees a different profile than the first.

Concretely, inside any class the project context identifies as a
``DistinctValueEstimator`` subclass, this rule flags:

* assignment / augmented assignment / deletion through ``self.<attr>`` or
  the profile parameter anywhere in estimation methods (construction-time
  configuration in ``__init__`` stays legal);
* known mutating method calls on the profile (``update``, ``pop`` …)
  and ``object.__setattr__`` on self or the profile;
* ``global`` / ``nonlocal`` statements in any method;
* an ``estimate`` override whose body never calls ``clamp_estimate`` —
  overriding is allowed, un-clamped results are not.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.project import ProjectContext
from repro.analysis.rules.base import Rule, register
from repro.analysis.source import SourceModule

__all__ = ["ESTIMATION_METHODS", "EstimatorPurity"]

#: Methods that constitute the estimation path (read-only by contract).
#: Shared with the transitive-purity rule (R402 in ``rules.flow``).
ESTIMATION_METHODS = frozenset(
    {"estimate", "_estimate_raw", "_interval", "__call__"}
)
_ESTIMATION_METHODS = ESTIMATION_METHODS


def _is_estimation_method(key: str, context: ProjectContext) -> bool:
    """True when a call-graph key names an estimator class's estimation method."""
    parts = key.split(".")
    if len(parts) < 2 or "<locals>" in parts:
        return False
    return parts[-1] in ESTIMATION_METHODS and parts[-2] in context.estimator_classes

#: Mutating container/dataclass methods we recognise by name.
_MUTATING_METHODS = frozenset(
    {
        "update",
        "clear",
        "pop",
        "popitem",
        "setdefault",
        "append",
        "extend",
        "insert",
        "remove",
        "sort",
        "add",
        "discard",
    }
)


def _root_name(expr: ast.expr) -> str | None:
    """Leftmost ``Name`` of an attribute/subscript chain, if any."""
    node = expr
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _profile_parameter(method: ast.FunctionDef) -> str | None:
    """Name of the profile argument: first parameter after ``self``."""
    args = method.args.posonlyargs + method.args.args
    if args and args[0].arg == "self" and len(args) > 1:
        return args[1].arg
    return None


@register
class EstimatorPurity(Rule):
    """Flag profile/self/global mutation inside estimator classes."""

    code = "R401"
    name = "estimator-purity"
    description = (
        "estimator mutates its profile, instance state, or module globals "
        "during estimation, or overrides estimate() without clamping"
    )

    rationale = (
        'Estimation must be a pure function of the frequency profile:\n'
        'the same profile asked twice must yield the same estimate, and\n'
        'estimating one column must not perturb another.  Mutating the\n'
        'profile, self, or module globals during estimate() breaks\n'
        'repeat-query invariance; skipping the [d_sample, n] clamp breaks\n'
        "the paper's error guarantee at the boundaries."
    )
    example = (
        'def _estimate_raw(self, profile):\n'
        '    self._last = profile          # R401: estimation writes state\n'
        '    profile.counts.sort()         # R401: mutates the profile\n'
        '    return d_hat\n'
    )
    remediation = (
        'Compute into locals; anything cached must be write-once outside\n'
        'the estimation path.  Override _estimate_raw (the clamped\n'
        'template hook) rather than estimate() itself.'
    )

    def check(
        self, module: SourceModule, context: ProjectContext
    ) -> Iterator[Finding]:
        for node in module.index.nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name not in context.estimator_classes:
                continue
            yield from self._check_class(module, node)

    # ------------------------------------------------------------------
    def _check_class(
        self, module: SourceModule, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        for statement in cls.body:
            if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            method = statement
            yield from self._check_globals(module, cls, method)
            if method.name not in _ESTIMATION_METHODS:
                continue
            tainted = {"self"}
            profile = _profile_parameter(method)  # type: ignore[arg-type]
            if profile is not None:
                tainted.add(profile)
            yield from self._check_mutations(module, cls, method, tainted)
            if method.name == "estimate":
                yield from self._check_clamp(module, cls, method)

    def _check_globals(
        self,
        module: SourceModule,
        cls: ast.ClassDef,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        for node in module.index.scope(method):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                keyword = "global" if isinstance(node, ast.Global) else "nonlocal"
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"estimator {cls.name}.{method.name} declares "
                    f"{keyword} {', '.join(node.names)}; estimators must not "
                    "write shared state",
                )

    def _check_mutations(
        self,
        module: SourceModule,
        cls: ast.ClassDef,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        tainted: set[str],
    ) -> Iterator[Finding]:
        where = f"{cls.name}.{method.name}"
        for node in module.index.scope(method):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = _root_name(target)
                    if root in tainted:
                        yield self.finding(
                            module,
                            target.lineno,
                            target.col_offset,
                            f"{where} writes {ast.unparse(target)!r}; "
                            "estimation must not mutate the estimator or "
                            "its profile",
                        )
            if isinstance(node, ast.Call):
                yield from self._check_call(module, where, node, tainted)

    def _check_call(
        self,
        module: SourceModule,
        where: str,
        call: ast.Call,
        tainted: set[str],
    ) -> Iterator[Finding]:
        func = call.func
        if isinstance(func, ast.Attribute):
            # profile.counts.update(...), self._cache.pop(...), ...
            if func.attr in _MUTATING_METHODS:
                root = _root_name(func.value)
                if root in tainted:
                    yield self.finding(
                        module,
                        call.lineno,
                        call.col_offset,
                        f"{where} calls {ast.unparse(func)!r}; "
                        f"'{func.attr}' mutates state reachable from "
                        "the estimator or its profile",
                    )
            # object.__setattr__(self/profile, ...) defeats frozen dataclasses.
            if (
                func.attr == "__setattr__"
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"
                and call.args
            ):
                root = _root_name(call.args[0])
                if root in tainted:
                    yield self.finding(
                        module,
                        call.lineno,
                        call.col_offset,
                        f"{where} uses object.__setattr__ on "
                        f"{ast.unparse(call.args[0])!r}; frozen inputs must "
                        "stay frozen during estimation",
                    )

    def _check_clamp(
        self,
        module: SourceModule,
        cls: ast.ClassDef,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        for node in module.index.walk(method):
            if isinstance(node, ast.Call):
                func = node.func
                name = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr
                    if isinstance(func, ast.Attribute)
                    else None
                )
                if name == "clamp_estimate":
                    return
                # Deferring to the base implementation keeps the clamp.
                if isinstance(func, ast.Attribute) and func.attr == "estimate":
                    root = func.value
                    if isinstance(root, ast.Call) and isinstance(
                        root.func, ast.Name
                    ) and root.func.id == "super":
                        return
        yield self.finding(
            module,
            method.lineno,
            method.col_offset,
            f"{cls.name}.estimate override never calls clamp_estimate (or "
            "super().estimate); raw estimates must be clamped to [d, n]",
        )
