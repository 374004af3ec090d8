"""Heuristic guardedness/positivity facts for one lexical scope.

The numeric rules (R101, R102) must decide whether a divisor or a
``log``/``sqrt`` argument can be nonpositive.  Full value analysis is
undecidable, so reprolint uses an intentionally simple, *auditable*
approximation computed per scope (module body, class body, or function
body — nested scopes never leak facts into each other):

* an expression is **guarded** when its exact source text — or every
  variable atom inside it — appears somewhere in a comparison or branch
  test of the same scope.  ``if r < 2: return 0.0`` therefore guards
  every later use of ``r``, including compounds like ``r * (r - 1)``;
* an expression is **provably positive** when it is built from positive
  literals, contract-positive names (quantities the estimator contract
  in :mod:`repro.core.base` validates before any estimator code runs),
  ``math.exp``/``math.sqrt``/``max``/``min`` combinations that preserve
  positivity, or local names whose every assignment is provably
  positive.

False positives are expected occasionally; that is what the
``# reprolint: disable=CODE`` pragma (with a justification comment) is
for.  False negatives are tolerated: the rule is a tripwire for the
common slip, not a verifier.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.source import _SCOPE_NODES, ModuleIndex

__all__ = [
    "ScopeFacts",
    "CONTRACT_POSITIVE",
    "iter_scopes",
    "module_positive_constants",
]

#: Expression texts the estimator contract guarantees to be positive:
#: ``DistinctValueEstimator.estimate`` rejects empty samples and
#: non-positive populations before any ``_estimate_raw`` runs, and the
#: module-level helpers validate the same quantities at entry.
CONTRACT_POSITIVE = frozenset(
    {
        "population_size",
        "sample_size",
        "profile.sample_size",
        "profile.distinct",
        "self.population_size",
        "self.sample_size",
    }
)

#: Attribute expressions that are positive mathematical constants.
_POSITIVE_CONSTANT_ATTRS = frozenset(
    {"math.e", "math.pi", "math.tau", "math.inf", "np.e", "np.pi", "numpy.e", "numpy.pi"}
)


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@dataclass
class ScopeFacts:
    """Comparison and assignment facts for one scope of an indexed module."""

    node: ast.AST
    index: ModuleIndex
    contract_positive: frozenset[str] = CONTRACT_POSITIVE
    compared: set[str] = field(default_factory=set)
    assignments: dict[str, list[ast.expr | None]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for child in self.index.scope(self.node):
            if isinstance(child, ast.Compare):
                self._note_compared(child.left)
                for comparator in child.comparators:
                    self._note_compared(comparator)
            elif isinstance(child, (ast.If, ast.While, ast.IfExp)):
                self._note_test(child.test)
            elif isinstance(child, ast.Assert):
                self._note_test(child.test)
            elif isinstance(child, ast.comprehension):
                for condition in child.ifs:
                    self._note_test(condition)
            elif isinstance(child, ast.Assign):
                self._note_assignment(child.targets, child.value)
            elif isinstance(child, ast.AnnAssign) and child.value is not None:
                self._note_assignment([child.target], child.value)
            elif isinstance(child, (ast.AugAssign, ast.For, ast.withitem)):
                target = getattr(child, "target", None) or getattr(
                    child, "optional_vars", None
                )
                if isinstance(target, ast.Name):
                    # Reassigned in a way we do not model: distrust it.
                    self.assignments.setdefault(target.id, []).append(None)

    # ------------------------------------------------------------------
    # Fact collection
    # ------------------------------------------------------------------
    def _note_compared(self, expr: ast.expr) -> None:
        self.compared.add(ast.unparse(expr))

    def _note_test(self, test: ast.expr) -> None:
        self._note_compared(test)
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            self._note_compared(test.operand)
        if isinstance(test, ast.BoolOp):
            for value in test.values:
                self._note_compared(value)
                if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.Not):
                    self._note_compared(value.operand)

    def _note_assignment(self, targets: list[ast.expr], value: ast.expr) -> None:
        for target in targets:
            if isinstance(target, ast.Name):
                self.assignments.setdefault(target.id, []).append(value)
            elif isinstance(target, (ast.Tuple, ast.List)):
                paired: list[tuple[ast.expr, ast.expr | None]]
                if isinstance(value, (ast.Tuple, ast.List)) and len(
                    target.elts
                ) == len(value.elts):
                    paired = list(zip(target.elts, value.elts))
                else:
                    paired = [(element, None) for element in target.elts]
                for sub_target, sub_value in paired:
                    if isinstance(sub_target, ast.Name):
                        self.assignments.setdefault(sub_target.id, []).append(
                            sub_value
                        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_guarded(self, expr: ast.expr) -> bool:
        """Text of ``expr`` (or all its variable atoms) appears in a test.

        A variable atom also passes when it is provably positive: a
        positive factor inside a compound divisor needs no guard of its
        own.
        """
        if ast.unparse(expr) in self.compared:
            return True
        atoms = self._outermost_atoms(expr)
        return bool(atoms) and all(
            ast.unparse(atom) in self.compared or self.is_positive(atom)
            for atom in atoms
        )

    def _outermost_atoms(self, expr: ast.expr) -> list[ast.expr]:
        """Variable atoms of ``expr``, not descending into Attribute values."""
        atoms: list[ast.expr] = []
        stack: list[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Attribute, ast.Name)):
                atoms.append(node)
            elif isinstance(node, ast.Call):
                # A call result is not a variable: its value is fresh each
                # time, so comparisons of the arguments say nothing.
                atoms.append(node)
            else:
                stack.extend(ast.iter_child_nodes(node))
        return atoms

    def is_positive(self, expr: ast.expr, _seen: frozenset[str] = frozenset()) -> bool:
        """Conservative proof that ``expr`` evaluates strictly positive."""
        if isinstance(expr, ast.Constant):
            return (
                isinstance(expr.value, (int, float))
                and not isinstance(expr.value, bool)
                and expr.value > 0
            )
        text = ast.unparse(expr)
        if text in self.contract_positive or text in _POSITIVE_CONSTANT_ATTRS:
            return True
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.UAdd):
            return self.is_positive(expr.operand, _seen)
        if isinstance(expr, ast.BinOp):
            if isinstance(expr.op, (ast.Add, ast.Mult, ast.Div)):
                return self.is_positive(expr.left, _seen) and self.is_positive(
                    expr.right, _seen
                )
            if isinstance(expr.op, ast.Pow):
                return self.is_positive(expr.left, _seen)
        if isinstance(expr, ast.IfExp):
            return self.is_positive(expr.body, _seen) and self.is_positive(
                expr.orelse, _seen
            )
        if isinstance(expr, ast.Call):
            name = _call_name(expr.func)
            if name == "exp":
                return True
            if name in ("float", "sqrt") and expr.args:
                return self.is_positive(expr.args[0], _seen)
            if name == "max" and expr.args:
                return any(self.is_positive(arg, _seen) for arg in expr.args)
            if name == "min" and expr.args:
                return all(self.is_positive(arg, _seen) for arg in expr.args)
            return False
        if isinstance(expr, ast.Name):
            if expr.id in _seen:
                return False
            sources = self.assignments.get(expr.id)
            if not sources or any(source is None for source in sources):
                return False
            seen = _seen | {expr.id}
            return all(
                self.is_positive(source, seen)
                for source in sources
                if source is not None
            )
        return False

    def is_nonnegative(self, expr: ast.expr) -> bool:
        """Conservative proof that ``expr`` evaluates to a value >= 0."""
        if self.is_positive(expr):
            return True
        if isinstance(expr, ast.Constant):
            return (
                isinstance(expr.value, (int, float))
                and not isinstance(expr.value, bool)
                and expr.value >= 0
            )
        if isinstance(expr, ast.Call):
            name = _call_name(expr.func)
            if name == "abs":
                return True
            if name == "max" and expr.args:
                return any(self.is_nonnegative(arg) for arg in expr.args)
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Pow):
            exponent = expr.right
            return (
                isinstance(exponent, ast.Constant)
                and isinstance(exponent.value, int)
                and exponent.value % 2 == 0
            )
        return False

    def is_safe_divisor(self, expr: ast.expr) -> bool:
        """Positive, a nonzero literal/negation, or guarded by a test."""
        if self.is_positive(expr):
            return True
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
            if self.is_positive(expr.operand):
                return True
        return self.is_guarded(expr)

    def is_safe_log_argument(self, expr: ast.expr, allow_zero: bool = False) -> bool:
        """Positive (or, for ``sqrt``, nonnegative) or guarded in scope."""
        if allow_zero and self.is_nonnegative(expr):
            return True
        return self.is_positive(expr) or self.is_guarded(expr)


def module_positive_constants(module_facts: ScopeFacts) -> frozenset[str]:
    """Module-level names whose every assignment is provably positive.

    Function scopes cannot see module assignments (facts are per scope),
    but a constant like ``_PHI = 0.77351`` is safe everywhere in the
    file; the numeric rules fold these names into ``contract_positive``
    for nested scopes.
    """
    positive: set[str] = set()
    for name in module_facts.assignments:
        reference = ast.Name(id=name, ctx=ast.Load())
        if module_facts.is_positive(reference):
            positive.add(name)
    return frozenset(positive)


def iter_scopes(index: ModuleIndex) -> Iterator[ast.AST]:
    """Yield the module node and every nested scope node of an indexed tree."""
    pending: list[ast.AST] = [index.tree]
    while pending:
        scope = pending.pop()
        yield scope
        for child in index.scope(scope):
            if isinstance(child, _SCOPE_NODES):
                pending.append(child)
