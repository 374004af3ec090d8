"""Float-domain hazard rules: R1301–R1304.

Where R101/R102 guard against *exceptions* (``ZeroDivisionError``,
``math domain error``), this family guards against the silent failure
modes of IEEE-754 float arithmetic: divisions and domain violations
that produce ``inf``/``nan`` without a traceback, overflows in
``exp``-family calls, and NaN values propagating into results and
artifacts.  The first three lean on the interval prover, which reads
callees in other modules through their contracts
(:mod:`repro.analysis.dataflow.contract_lookup`), so a site whose
safety *can* be proved from guards or contracts is never reported.
R1304 follows NaN producers syntactically, through any chain of
project calls, reading each function's single-assignment ``defs``
from :func:`~repro.analysis.dataflow.engine.function_draft`: it needs
no fixpoint, so no interval analysis.

Scopes are deliberate:

* R1301 audits functions that declare a ``@requires``/``@ensures``
  contract, anywhere in the tree: a contracted function advertises
  machine-checked behaviour, so every division inside it must rest on
  a *proof*, not a hunch — otherwise the guarantee silently narrows.
* R1302/R1303 audit the estimator stack (the same packages as R101),
  where a silent ``nan``/``inf`` corrupts an error curve instead of
  crashing.
* R1304 is whole-program: NaN producers flowing into the same sinks
  the determinism rule R1001 protects (estimation results, artifact
  payload writes).
"""

from __future__ import annotations

import ast
import math
from typing import Iterator

from repro.analysis.dataflow import ModuleIntervals, module_intervals
from repro.analysis.dataflow.contract_lookup import (
    ContractLookup,
    contract_lookup,
    in_estimator_stack,
    needs_intervals,
)
from repro.analysis.dataflow.engine import function_draft
from repro.analysis.effects import _callee_key, defined_functions
from repro.analysis.findings import Finding
from repro.analysis.project import ProjectContext
from repro.analysis.rules.base import ProjectRule, Rule, register
from repro.analysis.rules.determinism import _payload_argument
from repro.analysis.rules.numeric import _numeric_call
from repro.analysis.rules.purity import _is_estimation_method
from repro.analysis.source import SourceModule, module_name, qualified_name

__all__ = [
    "UnprovenNonzeroDivision",
    "FloatDomainViolation",
    "ExpOverflowHazard",
    "NanToSink",
    "nan_producer_reason",
    "nan_returns",
]

#: ``math.exp`` overflows (and ``np.exp`` saturates to ``inf``) once the
#: argument exceeds ``log(sys.float_info.max)`` ~ 709.78.
_EXP_LIMIT = math.log(1.7976931348623157e308)

#: Exp-family callables audited by R1303, with their overflow threshold
#: (``exp2`` overflows at 1024, the others at ``_EXP_LIMIT``).
_EXP_CALLS: dict[str, float] = {
    "exp": _EXP_LIMIT,
    "expm1": _EXP_LIMIT,
    "exp2": 1024.0,
}

#: Log-family callables audited by R1302 (argument must be positive).
_LOG_CALLS = frozenset({"log", "log2", "log10"})

#: Calls that *sanitize* NaN: their result is NaN-free (or the call is
#: itself the guard a NaN check hangs off).
_NAN_SANITIZERS = frozenset({"isnan", "isfinite", "nan_to_num", "isclose"})


@register
class UnprovenNonzeroDivision(Rule):
    """R1301: a division inside a contracted function lacks a nonzero proof.

    Contracted functions are the proved surface of the library — their
    ``@ensures`` clauses are discharged statically and re-checked at
    runtime.  A division whose divisor the prover cannot bound away
    from zero is a hole in that surface: under numpy semantics it
    yields ``inf``/``nan`` silently, under scalar semantics it raises
    on exactly the degenerate profiles the contracts exist to pin down.
    """

    code = "R1301"
    name = "unproven-nonzero-division"
    description = (
        "division inside a @requires/@ensures-contracted function whose "
        "divisor the prover cannot show nonzero"
    )

    rationale = (
        'A function that declares a contract advertises machine-checked\n'
        'behaviour; repro lint --prove certifies its ensures clauses.\n'
        'But a proof built on a division that can produce inf/nan (or\n'
        'raise) on degenerate input is vacuous exactly where it matters\n'
        '— the all-singleton and empty-tail profiles.  So the divisor\n'
        'must be *proved* nonzero from the function\'s own guards and\n'
        '@requires clauses or the @ensures contracts of the functions\n'
        'it calls, in or out of the estimator stack.'
    )
    example = (
        '@ensures("result >= 0.0")\n'
        'def coverage(f1: int, r: int) -> float:\n'
        '    return 1.0 - f1 / r    # R1301: r unproven nonzero\n'
        '\n'
        '@requires("r >= 1")\n'
        '@ensures("result >= 0.0")   # divisor now proved: r >= 1\n'
        '...'
    )
    remediation = (
        'Add the missing @requires clause (callers are checked under\n'
        'REPRO_CONTRACTS=1), guard with an early return the prover can\n'
        'refine on, or derive the divisor from proved-positive\n'
        'quantities.'
    )

    def check(
        self, module: SourceModule, context: ProjectContext
    ) -> Iterator[Finding]:
        if not needs_intervals(module):
            return
        intervals = module_intervals(module)
        for analysis in intervals.function_analyses():
            if not analysis.contract:
                continue
            for node in module.index.scope(analysis.node):
                if not (
                    isinstance(node, ast.BinOp)
                    and isinstance(node.op, (ast.Div, ast.FloorDiv, ast.Mod))
                ):
                    continue
                if intervals.proves_nonzero(node.right):
                    continue
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"divisor {ast.unparse(node.right)!r} in contracted "
                    f"function {analysis.qualname!r} is not provably "
                    "nonzero; add a @requires clause or a refinable guard",
                )


@register
class FloatDomainViolation(Rule):
    """R1302: log/sqrt/fractional-pow argument outside the proved domain.

    Covers the numpy spellings R102 deliberately leaves out —
    ``np.log``/``np.log2``/``np.log10``/``np.sqrt`` return
    ``-inf``/``nan`` *silently* — plus fractional constant powers
    (``x ** 0.5`` is a domain error for negative ``x``).
    """

    code = "R1302"
    name = "float-domain-violation"
    description = (
        "np.log/np.sqrt/fractional-power argument not provably inside "
        "its domain (estimator stack only)"
    )

    rationale = (
        'math.log(0) at least raises; np.log(0) quietly emits -inf and\n'
        'a RuntimeWarning nobody reads, and the -inf then rides through\n'
        'every downstream mean and ratio.  Estimator code takes logs\n'
        'and roots of frequencies and probabilities that degenerate\n'
        'exactly when the data does, so each such argument must be\n'
        'provably positive (log), non-negative (sqrt and fractional\n'
        'powers), or clamped.'
    )
    example = (
        'log_p = np.log(p)                      # R1302: p may be 0\n'
        '\n'
        'log_p = np.log(np.maximum(p, 1e-300))  # proved: arg >= 1e-300\n'
    )
    remediation = (
        'Clamp with np.maximum(x, tiny) when zero is a rounding\n'
        'artifact, guard the degenerate case explicitly, or establish\n'
        'positivity via @requires so the prover discharges the site.'
    )

    def check(
        self, module: SourceModule, context: ProjectContext
    ) -> Iterator[Finding]:
        if not in_estimator_stack(module):
            return
        intervals = module_intervals(module)
        for node in module.index.nodes:
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, intervals)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                yield from self._check_pow(module, node, intervals)

    def _check_call(
        self, module: SourceModule, node: ast.Call, intervals: ModuleIntervals
    ) -> Iterator[Finding]:
        spec = _numeric_call(module, node)
        if spec is None:
            return
        owner, name = spec
        if owner == "math":
            return  # R102's territory
        if name not in _LOG_CALLS and name != "sqrt":
            return
        argument = node.args[0]
        proved = (
            intervals.proves_nonnegative(argument)
            if name == "sqrt"
            else intervals.proves_positive(argument)
        )
        if proved:
            return
        domain = ">= 0" if name == "sqrt" else "> 0"
        yield self.finding(
            module,
            node.lineno,
            node.col_offset,
            f"{ast.unparse(node.func)} argument {ast.unparse(argument)!r} is not "
            f"provably {domain}; numpy would emit nan/-inf silently — "
            "clamp or guard it",
        )

    def _check_pow(
        self, module: SourceModule, node: ast.BinOp, intervals: ModuleIntervals
    ) -> Iterator[Finding]:
        exponent = node.right
        if not (
            isinstance(exponent, ast.Constant)
            and isinstance(exponent.value, float)
            and not float(exponent.value).is_integer()
        ):
            return
        if intervals.proves_nonnegative(node.left):
            return
        yield self.finding(
            module,
            node.lineno,
            node.col_offset,
            f"base {ast.unparse(node.left)!r} of fractional power "
            f"** {exponent.value!r} is not provably >= 0; a negative "
            "base is a domain error — prove or guard it",
        )


@register
class ExpOverflowHazard(Rule):
    """R1303: exp-family call whose argument is not provably bounded above.

    ``math.exp(710)`` raises ``OverflowError``; ``np.exp(710)``
    saturates to ``inf`` silently.  Estimator code exponentiates
    ``i * log(1-q)``-style terms where ``i`` ranges over observed
    frequencies — unbounded in the data — so each call must either
    prove an upper bound below the overflow threshold or clamp the
    argument (the log-space terms are all mathematically ``<= 0``, so
    ``min(0.0, x)`` is an exact no-op that doubles as the proof).
    """

    code = "R1303"
    name = "exp-overflow-hazard"
    description = (
        "math.exp/np.exp-family argument not provably below the overflow "
        "threshold (estimator stack only)"
    )

    rationale = (
        'Frequencies are unbounded in the input, and exp(i * c) crosses\n'
        'the float ceiling at i*c ~ 709.78.  math.exp then aborts the\n'
        'sweep with OverflowError; np.exp silently floods the estimate\n'
        'with inf.  Every exp on the estimator path is a log-space\n'
        'probability term that is mathematically nonpositive — clamping\n'
        'with min(0.0, .) costs nothing, changes nothing, and makes the\n'
        'bound machine-checkable.'
    )
    example = (
        'term = math.exp(i * log_one_minus_q)            # R1303\n'
        '\n'
        'term = math.exp(min(0.0, i * log_one_minus_q))  # proved: <= 0\n'
    )
    remediation = (
        'Clamp the argument with min(0.0, x) (exact for log-space\n'
        'terms), or bound it via a guard/@requires the prover can see.'
    )

    def check(
        self, module: SourceModule, context: ProjectContext
    ) -> Iterator[Finding]:
        if not in_estimator_stack(module):
            return
        intervals = module_intervals(module)
        for node in module.index.nodes:
            if not isinstance(node, ast.Call):
                continue
            spec = _numeric_call(module, node)
            if spec is None:
                continue
            limit = _EXP_CALLS.get(spec[1])
            if limit is None:
                continue
            argument = node.args[0]
            if intervals.interval_of(argument).hi <= limit:
                continue
            yield self.finding(
                module,
                node.lineno,
                node.col_offset,
                f"{ast.unparse(node.func)} argument {ast.unparse(argument)!r} "
                f"has no proved upper bound below {limit:.0f}; overflow "
                "is silent inf under numpy — clamp with min(0.0, ...) "
                "or bound it",
            )


@register
class NanToSink(ProjectRule):
    """R1304: a NaN-producing value reaches a result or artifact sink.

    Reuses R1001's sink definitions — estimation-method returns and
    artifact payload writes — with NaN producers in place of
    nondeterminism sources: ``float("nan")``/``np.nan`` literals,
    ``0/0``-shaped divisions, and calls to project functions that may
    return NaN (:func:`nan_returns`).  Expressions passed through
    ``np.nan_to_num``/``isnan``/``isfinite`` checks in the same scope
    are treated as sanitized.
    """

    code = "R1304"
    name = "nan-to-sink"
    description = (
        "NaN-producing expression flows into an estimation result or "
        "artifact write"
    )

    rationale = (
        'A NaN in an estimate or a results file is worse than a crash:\n'
        'every comparison against it is False, so sanity clamps pass it\n'
        'through, aggregations turn entire sweeps into NaN, and the\n'
        'corruption is only noticed at plot time.  Producers are few\n'
        'and syntactically recognisable — nan literals, 0/0 shapes,\n'
        'and calls to project functions that return one of them —\n'
        'so the flow to a sink is worth a hard error.'
    )
    example = (
        'def _estimate_raw(self, profile, n):\n'
        '    return float("nan"), {}        # R1304: NaN into a result\n'
        '\n'
        '    return float("inf"), {}        # inf is clamped by the\n'
        '                                   # sanity bounds; NaN is not\n'
    )
    remediation = (
        'Return float("inf") (the sanity bounds clamp it) or raise for\n'
        'genuinely undefined estimates; sanitize array payloads with\n'
        'np.nan_to_num or an explicit isnan/isfinite check before\n'
        'writing.'
    )

    def check_project(
        self, modules: list[SourceModule], context: ProjectContext
    ) -> Iterator[Finding]:
        lookup = contract_lookup(modules, context)
        reasons = nan_returns(modules, lookup)
        for key in sorted(reasons):
            if not _is_estimation_method(key, context):
                continue
            module, _qualname, node = lookup.functions[key]
            yield self.finding(
                module,
                node.lineno,
                node.col_offset,
                f"{key} is an estimation method but may return NaN "
                f"({reasons[key]}); return inf or raise instead",
            )
        for module in modules:
            yield from self._payload_sinks(module, lookup, reasons)

    def _payload_sinks(
        self, module: SourceModule, lookup: ContractLookup, reasons: dict[str, str]
    ) -> Iterator[Finding]:
        for qualname, func in defined_functions(module):
            scope = module.index.scope(func)
            sanitized = self._sanitized_names(scope)
            for node in scope:
                if not isinstance(node, ast.Call):
                    continue
                payload = _payload_argument(module, node)
                if payload is None:
                    continue
                if self._roots(payload) & sanitized:
                    continue
                defs = function_draft(module, qualname, func).defs
                reason = nan_producer_reason(module, payload, defs)
                if reason is None:
                    reason = _nan_call(lookup, module, payload, reasons)
                if reason is None:
                    continue
                target = _callee_key(node.func) or "write"
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"{qualname} writes a possibly-NaN payload "
                    f"({reason}) to an artifact via {target}(); sanitize "
                    "it first",
                )

    @staticmethod
    def _sanitized_names(scope: tuple[ast.AST, ...]) -> set[str]:
        """Names mentioned inside a NaN check/sanitizer call in ``scope``."""
        names: set[str] = set()
        for node in scope:
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node) in _NAN_SANITIZERS:
                for arg in node.args:
                    for inner in ast.walk(arg):
                        if isinstance(inner, ast.Name):
                            names.add(inner.id)
        return names

    @staticmethod
    def _roots(expr: ast.expr) -> set[str]:
        return {
            node.id for node in ast.walk(expr) if isinstance(node, ast.Name)
        }


def nan_returns(
    modules: list[SourceModule], lookup: ContractLookup
) -> dict[str, str]:
    """Why each project function that may return NaN does, by key.

    A function may return NaN when one of its ``return`` expressions
    holds a NaN producer (:func:`nan_producer_reason`) or an unsanitized
    call to a function that may return NaN.  The reason names the
    producer, through the chain of calls that reaches it.  Passes repeat
    until one adds no function, so each adds a link to the chains.
    """
    returns = []
    for module in modules:
        modname = module_name(module.path)
        for qualname, func in defined_functions(module):
            key = f"{modname}.{qualname}"
            if key in lookup.functions:
                values = [
                    stmt.value
                    for stmt in module.index.walk(func)
                    if isinstance(stmt, ast.Return) and stmt.value is not None
                ]
                if values:
                    returns.append((key, module, qualname, func, values))
    reasons: dict[str, str] = {}
    added = True
    while added:
        added = False
        for key, module, qualname, func, values in returns:
            if key in reasons:
                continue
            defs = function_draft(module, qualname, func).defs
            for value in values:
                reason = nan_producer_reason(module, value, defs)
                if reason is not None:
                    reason = f"{reason} (line {value.lineno}, {module.path})"
                else:
                    reason = _nan_call(lookup, module, value, reasons)
                if reason is not None:
                    reasons[key] = reason
                    added = True
                    break
    return reasons


def _nan_call(
    lookup: ContractLookup, module: SourceModule, expr: ast.expr, reasons: dict[str, str]
) -> str | None:
    """The chain of the first unsanitized call in ``expr`` that may be NaN."""
    calls = [node for node in ast.walk(expr) if isinstance(node, ast.Call)]
    sanitized = {
        id(inner)
        for call in calls
        if _call_name(call) in _NAN_SANITIZERS
        for inner in ast.walk(call)
    }
    for call in calls:
        if id(call) in sanitized:
            continue
        target = lookup.resolve(module, call)
        if target in reasons:
            return (
                f"calls {target} which may return NaN (line {call.lineno}); "
                f"{reasons[target]}"
            )
    return None


def _call_name(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def nan_producer_reason(
    module: SourceModule, expr: ast.expr, defs: dict[str, ast.expr], depth: int = 0
) -> str | None:
    """Why ``expr`` may evaluate to NaN, or None when no producer found.

    Syntactic, with a bounded chase through single-assignment
    definitions (the engine's ``defs`` table): ``float("nan")`` /
    ``np.nan`` / ``math.nan`` literals, and ``0/0``-shaped constant
    divisions.  Sanitized expressions — anything passed through
    ``nan_to_num`` or compared via ``isnan`` / ``isfinite`` — are the
    *callers'* job to suppress, keeping this predicate pure.
    """
    if depth > 6:
        return None
    if isinstance(expr, ast.Call):
        if _call_name(expr) in _NAN_SANITIZERS:
            return None
        func = expr.func
        if (
            isinstance(func, ast.Name)
            and func.id == "float"
            and expr.args
            and isinstance(expr.args[0], ast.Constant)
            and isinstance(expr.args[0].value, str)
            and expr.args[0].value.lower() in ("nan", "-nan")
        ):
            return 'float("nan") literal'
        for arg in expr.args:
            reason = nan_producer_reason(module, arg, defs, depth + 1)
            if reason is not None:
                return reason
        return None
    if isinstance(expr, ast.Attribute):
        if qualified_name(module, expr) in ("numpy.nan", "math.nan"):
            return f"{ast.unparse(expr)} literal"
        return None
    if isinstance(expr, ast.Name):
        defined = defs.get(expr.id)
        if defined is not None:
            reason = nan_producer_reason(module, defined, defs, depth + 1)
            if reason is not None:
                return f"{expr.id!r} = {reason}"
        return None
    if isinstance(expr, ast.BinOp):
        if isinstance(expr.op, ast.Div) and _is_zero(expr.left, defs) and _is_zero(
            expr.right, defs
        ):
            return "0/0 division"
        for side in (expr.left, expr.right):
            reason = nan_producer_reason(module, side, defs, depth + 1)
            if reason is not None:
                return reason
        return None
    if isinstance(expr, (ast.Tuple, ast.List)):
        for element in expr.elts:
            reason = nan_producer_reason(module, element, defs, depth + 1)
            if reason is not None:
                return reason
        return None
    if isinstance(expr, ast.IfExp):
        for branch in (expr.body, expr.orelse):
            reason = nan_producer_reason(module, branch, defs, depth + 1)
            if reason is not None:
                return reason
        return None
    if isinstance(expr, ast.UnaryOp):
        return nan_producer_reason(module, expr.operand, defs, depth + 1)
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
