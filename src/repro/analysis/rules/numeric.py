"""Numeric-safety rules: unguarded division, unsafe log/sqrt, float equality.

Why these three, specifically: every estimator in this library is a pure
function of sample quantities (``r``, ``d``, the ``f_i``) that can all be
zero on legitimate inputs, and the error *measurements* the paper's
guarantee is judged by are ratios of such quantities.  A ``ZeroDivision``
or ``math domain error`` on a rare profile silently truncates an
experiment sweep; a float ``==`` flips a hybrid's branch on one platform
and not another.  Empirical studies of these estimators (Deolalikar &
Laffitte 2016; the q-error literature) attribute exactly this class of
bug to corrupted error curves.

R101 and R102 are scoped to the estimator stack (``repro/core``,
``repro/estimators``, ``repro/frequency``, ``repro/sketches``,
``repro/sampling``) where the contract applies; R201 runs tree-wide.

Both report exactly the sites the interval prover
(:mod:`repro.analysis.dataflow`) cannot clear: a divisor it cannot show
nonzero, a log argument it cannot show positive (``sqrt``: nonnegative).
Naming a quantity in a comparison proves nothing: ``if r > 100: return
0.0`` leaves ``f1 / r`` reported.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.dataflow import module_intervals
from repro.analysis.dataflow.contract_lookup import in_estimator_stack
from repro.analysis.findings import Finding
from repro.analysis.project import ProjectContext
from repro.analysis.rules.base import Rule, register
from repro.analysis.source import SourceModule, qualified_name

__all__ = ["UnguardedDivision", "UnsafeLogSqrt", "FloatEquality"]

def _numeric_call(module: SourceModule, node: ast.Call) -> tuple[str, str] | None:
    """``(module, name)`` of a ``math``/``numpy`` function called with arguments.

    ``np.log(p)`` under ``import numpy as np`` is ``("numpy", "log")``,
    and ``log(x)`` under ``from math import log`` is ``("math", "log")``.
    """
    owner, _, name = (qualified_name(module, node.func) or "").rpartition(".")
    if owner in ("math", "numpy") and node.args:
        return owner, name
    return None


@register
class UnguardedDivision(Rule):
    """R101: division by a quantity that may be zero.

    The interval prover must show the divisor nonzero where it is
    evaluated, from guards, ``@requires`` clauses, constants or the
    estimator contract's quantities; a comparison that mentions the
    divisor without excluding zero proves nothing.
    """

    code = "R101"
    name = "unguarded-division"
    description = (
        "division by a possibly-zero sample quantity without a guard "
        "(estimator stack only)"
    )

    rationale = (
        'The estimators divide by sample quantities — sample sizes, hash\n'
        'minima, frequency counts — that legitimately hit zero on small or\n'
        'degenerate inputs.  An unguarded division is a ZeroDivisionError\n'
        '(or a silent inf under numpy) at sweep point 4173 of 5000.  The\n'
        'interval engine proves most divisors positive from guards and\n'
        'contracts; only unprovable sites are reported.'
    )
    example = (
        'def ratio(hits: int, n: int) -> float:\n'
        '    return hits / n        # R101: n may be zero\n'
        '\n'
        'def ratio(hits: int, n: int) -> float:\n'
        '    if n < 1:\n'
        '        raise InvalidParameterError("n must be positive")\n'
        '    return hits / n        # proven: n >= 1\n'
    )
    remediation = (
        'Guard the divisor before dividing (raise or early-return), or\n'
        'declare the invariant with @requires so the prover sees it.  If\n'
        'positivity is structurally guaranteed but unprovable, suppress\n'
        'with a justification.'
    )

    def check(
        self, module: SourceModule, context: ProjectContext
    ) -> Iterator[Finding]:
        if not in_estimator_stack(module):
            return
        intervals = module_intervals(module)
        for node in module.index.nodes:
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, (ast.Div, ast.FloorDiv, ast.Mod))
                and not intervals.proves_nonzero(node.right)
            ):
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"divisor {ast.unparse(node.right)!r} may be zero; guard it "
                    "(compare/early-return) or derive it from contract-"
                    "positive quantities",
                )


@register
class UnsafeLogSqrt(Rule):
    """R102: ``math.log``/``math.sqrt`` on a possibly-nonpositive argument.

    ``math.log(0)`` and ``math.sqrt(-eps)`` raise ``ValueError`` at the
    exact profiles (all-singleton samples, empty tails) where estimator
    behaviour matters most; the interval prover must show the argument
    positive (``sqrt``: nonnegative) where it is evaluated.
    """

    code = "R102"
    name = "unsafe-log-sqrt"
    description = (
        "math.log/math.sqrt argument may be nonpositive (estimator stack only)"
    )

    rationale = (
        "math.log raises on zero and numpy's quietly returns -inf/nan,\n"
        'which then poisons every downstream statistic without a\n'
        'traceback.  GEE-style estimators take logs and roots of\n'
        'frequencies and ratios that degenerate exactly when the data\n'
        'does, so these sites deserve proofs, not hope.'
    )
    example = (
        'scale = math.log(n / k)    # R102: n/k may be <= 0 when k > n\n'
        '\n'
        'if k > n:\n'
        '    raise InvalidParameterError("k cannot exceed n")\n'
        'scale = math.log(n / k)    # proven: argument >= 1\n'
    )
    remediation = (
        'Establish positivity with a guard or @requires contract before\n'
        'the call, or restructure so the argument is structurally\n'
        'positive (e.g. 1 + x with x >= 0).'
    )

    _FUNCTIONS = ("log", "log2", "log10", "sqrt")

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
            if spec is None or spec[0] != "math" or spec[1] not in self._FUNCTIONS:
                continue
            name, argument = spec[1], node.args[0]
            if name == "sqrt":
                proved = intervals.proves_nonnegative(argument)
            else:
                proved = intervals.proves_positive(argument)
            if not proved:
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"math.{name} argument {ast.unparse(argument)!r} may be "
                    "nonpositive; guard it or build it from positive quantities",
                )


@register
class FloatEquality(Rule):
    """R201: ``==``/``!=`` against a float literal.

    Exact float comparison encodes an assumption about rounding that the
    next refactor silently breaks — ``q == 1.0`` misses ``q =
    0.9999999999999999`` from ``r/n`` and takes the wrong estimator
    branch.  Compare with an inequality that covers the boundary, or use
    ``math.isclose`` when equality truly is the intent.
    """

    code = "R201"
    name = "float-equality"
    description = "equality comparison against a float literal"

    rationale = (
        'Floating-point equality holds for exactly one bit pattern, and\n'
        'accumulated rounding differs across platforms, BLAS builds, and\n'
        'summation orders.  An == against a float literal is a latent\n'
        'flaky branch: correct today, wrong after any benign numeric\n'
        'refactor.'
    )
    example = (
        'if coverage == 0.95:       # R201: one exact bit pattern\n'
        '    ...\n'
        '\n'
        'if abs(coverage - 0.95) < 1e-12:\n'
        '    ...\n'
    )
    remediation = (
        'Compare with an explicit tolerance (abs(x - c) < eps or\n'
        'math.isclose), or compare integers (counts) instead of derived\n'
        'floats.'
    )

    def check(
        self, module: SourceModule, context: ProjectContext
    ) -> Iterator[Finding]:
        for node in module.index.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operators = node.ops
            operands = [node.left, *node.comparators]
            for index, op in enumerate(operators):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                pair = (operands[index], operands[index + 1])
                if any(self._is_float_literal(operand) for operand in pair):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        f"float literal compared with {symbol!r}; use an "
                        "inequality covering the boundary or math.isclose",
                    )

    @staticmethod
    def _is_float_literal(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, float):
            return True
        return (
            isinstance(expr, ast.UnaryOp)
            and isinstance(expr.op, (ast.USub, ast.UAdd))
            and isinstance(expr.operand, ast.Constant)
            and isinstance(expr.operand.value, float)
        )
