"""Worklist abstract interpretation over per-function CFGs.

:class:`ModuleIntervals` is the facade the rules use: build it once per
:class:`~repro.analysis.source.SourceModule` (via
:func:`module_intervals`, which caches on the module object) and ask
``proves_nonzero(expr)`` / ``proves_positive(expr)`` /
``proves_nonnegative(expr)`` about any expression node of the tree.
Internally it:

* analyzes every function with a worklist fixpoint over its CFG,
  refining intervals along guarded edges (``if n < 1: raise`` leaves
  ``n >= 1`` on the fall-through path) and widening at loop heads
  straight to infinity; a loop target is unknown;
* derives ``self.<attr>`` facts per class in two passes — pass one
  analyzes the methods that store or delete a ``self.<attr>`` and joins
  every assignment to the attribute across the class and its in-module
  relatives, pass two analyzes every function with those facts seeded
  at entry;
* seeds parameters from ``@requires`` contract clauses and binds call
  results from the callee's ``@ensures`` clauses (including the
  ``result[i]`` form for tuple-unpacked returns), for callees in other
  modules too when a call lookup resolves them
  (:mod:`repro.analysis.dataflow.contract_lookup`);
* starts an uncontracted function's estimator-contract parameters
  (``population_size``, ``profile.sample_size``, ...) at ``>= 1``;
* evaluates module-level expressions in the module env, masking the
  names a class body, lambda or comprehension rebinds;
* refines a conditional's branches, later ``and``/``or`` operands and a
  comprehension's element by the tests that lead to them;
* answers a place no feasible path reaches (an unreachable block, an
  operand under a test that cannot hold) with the empty interval;
* verifies each function's own ``@ensures`` clauses at every return
  site, classifying them ``proved`` / ``runtime`` / ``violated``.

Expressions are modeled by the arithmetic operators ``+ - * / ** <<``
and unary minus, the builtins ``abs``, ``max``, ``min``, ``int`` and
``float``, the ``math``/``numpy`` calls ``sqrt``, ``exp``, ``log``,
``log2``, ``log10``, ``maximum``/``fmax``, ``minimum``/``fmin``,
``count_nonzero`` and the ``int*``/``uint*`` casts, ``.astype``, tuple
elements, and the callee's ``@ensures`` clauses.  The relational prover
(``_sym_diff``) adds copy and definition chasing, ``@requires`` relations,
callee bounds with arguments substituted, and a few algebraic rewrites.

Environments are plain dicts mapping variable keys (``"n"``,
``"self.bits"``, ``"column.size"``) to :class:`Interval`; a missing key
means TOP.  Anything the interpreter does not model stays TOP, so the
worst failure mode is a missed proof, never a wrong one — modulo the
documented real-arithmetic, integer-cast and encapsulation caveats.
"""

from __future__ import annotations

import ast
import copy
import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

from repro.analysis.dataflow.cfg import ControlFlowGraph, build_cfg
from repro.analysis.dataflow.intervals import TOP, Interval
from repro.analysis.source import SourceModule, qualified_name

__all__ = [
    "ClauseVerdict",
    "FunctionAnalysis",
    "FunctionContract",
    "ModuleIntervals",
    "RemoteCallee",
    "function_draft",
    "key_of",
    "module_intervals",
]

Env = dict[str, Interval]

_ZERO = Interval.const(0.0)
_EMPTY = Interval.empty()

#: Safety valve: a function whose fixpoint has not stabilized after this
#: many block visits is abandoned (all queries answer TOP).
_MAX_VISITS = 2000

#: Module-level constants every file can rely on.
_WELL_KNOWN = {
    "math.pi": Interval.const(3.141592653589793),
    "math.e": Interval.const(2.718281828459045),
    "math.tau": Interval.const(6.283185307179586),
    "math.inf": Interval.at_least(1.0),
    "np.pi": Interval.const(3.141592653589793),
    "np.e": Interval.const(2.718281828459045),
    "numpy.pi": Interval.const(3.141592653589793),
    "numpy.e": Interval.const(2.718281828459045),
}

#: One-argument logarithms by name, each bounded by its own function.
_LOGS = {"log": math.log, "log2": math.log2, "log10": math.log10}

_ASSUME = {
    ast.Lt: Interval.assume_lt,
    ast.LtE: Interval.assume_le,
    ast.Gt: Interval.assume_gt,
    ast.GtE: Interval.assume_ge,
    ast.Eq: Interval.assume_eq,
    ast.NotEq: Interval.assume_ne,
}

#: Comparison seen from the right operand's side.
_MIRROR = {
    ast.Lt: ast.Gt,
    ast.LtE: ast.GtE,
    ast.Gt: ast.Lt,
    ast.GtE: ast.LtE,
    ast.Eq: ast.Eq,
    ast.NotEq: ast.NotEq,
}

#: ``not (a OP b)`` for the total order on reals.
_NEGATE = {
    ast.Lt: ast.GtE,
    ast.LtE: ast.Gt,
    ast.Gt: ast.LtE,
    ast.GtE: ast.Lt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
}

_CONTRACT_DECORATORS = ("requires", "ensures")

#: Quantities ``DistinctValueEstimator.estimate`` validates (``>= 1``)
#: before any estimator code runs, and the module-level helpers at
#: entry.  An uncontracted function starts with those rooted at its
#: parameters; a contracted one rests on its own clauses alone.
_ESTIMATOR_CONTRACT = (
    "population_size",
    "sample_size",
    "profile.sample_size",
    "profile.distinct",
    "self.population_size",
    "self.sample_size",
)


def key_of(expr: ast.AST) -> str | None:
    """Dotted tracking key for a Name / attribute chain, if trackable.

    ``result[i]`` (constant integer index on the name ``result``) is also
    a key — contract clauses use it for tuple-returning functions.
    """
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        base = key_of(expr.value)
        if base is not None and "[" not in base:
            return f"{base}.{expr.attr}"
        return None
    if (
        isinstance(expr, ast.Subscript)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "result"
        and isinstance(expr.slice, ast.Constant)
        and isinstance(expr.slice.value, int)
    ):
        return f"result[{expr.slice.value}]"
    return None


@dataclass
class FunctionContract:
    """``@requires``/``@ensures`` clauses read off a function's decorators."""

    requires: list[str] = field(default_factory=list)
    ensures: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.requires or self.ensures)


@dataclass
class ClauseVerdict:
    """Static status of one contract clause."""

    qualname: str
    kind: str  # "requires" | "ensures"
    clause: str
    lineno: int
    #: ``assumed`` (requires), ``proved``, ``runtime``, or ``violated``.
    verdict: str


@dataclass(frozen=True)
class RemoteCallee:
    """A contracted callee as a call site binds it.

    ``contract`` carries the callee's ``@requires``/``@ensures`` clauses;
    ``self_attrs`` the ``self.<attr>`` facts of its class, which hold
    for the receiver of a method call.
    """

    qualname: str
    param_names: tuple[str, ...]
    contract: FunctionContract
    self_attrs: dict[str, Interval] = field(default_factory=dict)


#: Resolves a call the module cannot resolve itself to its callee's
#: contract (:meth:`repro.analysis.dataflow.contract_lookup.ContractLookup.lookup`).
CallLookup = Callable[[SourceModule, ast.Call], "RemoteCallee | None"]


@dataclass
class FunctionAnalysis:
    """Fixpoint results for one function definition."""

    node: ast.FunctionDef | ast.AsyncFunctionDef
    qualname: str
    class_name: str | None
    contract: FunctionContract
    cfg: ControlFlowGraph | None = None
    #: env *before* each recorded statement, keyed by ``id(stmt)``.
    env_at: dict[int, Env] = field(default_factory=dict)
    #: ``(return_stmt, env_before)`` for every reachable ``return``.
    returns: list[tuple[ast.Return, Env]] = field(default_factory=list)
    param_names: set[str] = field(default_factory=set)
    assigned_names: set[str] = field(default_factory=set)
    poisoned: set[str] = field(default_factory=set)
    abandoned: bool = False
    #: Store-site counts per name (function scope, nested scopes excluded).
    store_counts: dict[str, int] = field(default_factory=dict)
    #: Single-assignment definitions: ``name`` (and ``name.field`` for
    #: constructor keyword arguments) -> defining expression.
    defs: dict[str, ast.expr] = field(default_factory=dict)
    #: Relational ``@requires`` facts: ``(left_key, op, right_key)``.
    relational_facts: list[tuple[str, type[ast.cmpop], str]] = field(
        default_factory=list
    )
    #: True when the body (nested scopes included) contains a ``:=``.
    has_walrus: bool = False

    @property
    def locals(self) -> set[str]:
        return self.param_names | self.assigned_names


#: Where an expression is evaluated: a statement's env in its analysis
#: (the module env when None), with the masked names read as TOP and the
#: ``(test, holds)`` refinements of the branch or operand it sits in.
_Assumed = tuple[tuple[ast.expr, bool], ...]
_Place = tuple[FunctionAnalysis | None, ast.stmt | None, frozenset[str], _Assumed]


def _contract_of(func: ast.FunctionDef | ast.AsyncFunctionDef) -> FunctionContract:
    contract = FunctionContract()
    for decorator in func.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        name = decorator.func
        attr = name.attr if isinstance(name, ast.Attribute) else getattr(name, "id", None)
        if attr not in _CONTRACT_DECORATORS:
            continue
        clauses = [
            arg.value
            for arg in decorator.args
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        ]
        if attr == "requires":
            contract.requires.extend(clauses)
        else:
            contract.ensures.extend(clauses)
    return contract


def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> list[str]:
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def _parse_clause(clause: str) -> ast.expr | None:
    try:
        return ast.parse(clause, mode="eval").body
    except SyntaxError:
        return None


def _peel_cast(expr: ast.expr) -> ast.expr:
    """Strip ``float(...)`` / ``int(...)`` wrappers for symbolic reasoning.

    ``float`` is value-preserving; ``int`` is treated as such too, which is
    exact whenever the operand is integral (every size-like quantity in
    this codebase) — the residual truncation caveat is documented in
    ``docs/static_analysis.md``.
    """
    while (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in ("float", "int")
        and len(expr.args) == 1
        and not expr.keywords
        and not isinstance(expr.args[0], ast.Starred)
    ):
        expr = expr.args[0]
    return expr


_RELATIONAL_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq)


def _collect_defs(scoped: tuple[ast.AST, ...], analysis: FunctionAnalysis) -> None:
    """Store counts, single-assignment defs and relational facts of a scope."""
    for node in scoped:
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            analysis.store_counts[node.id] = analysis.store_counts.get(node.id, 0) + 1
    # A single textual store site inside a loop still means many dynamic
    # bindings; such names are not usable as single-assignment defs.
    loop_nested: set[int] = set()
    for node in scoped:
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            for inner in ast.walk(node):
                loop_nested.add(id(inner))
    for node in scoped:
        if (
            isinstance(node, ast.Assign)
            and id(node) not in loop_nested
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            name = node.targets[0].id
            if (
                analysis.store_counts.get(name) != 1
                or name in analysis.poisoned
                or name in analysis.param_names
            ):
                continue
            analysis.defs[name] = node.value
            value = _peel_cast(node.value)
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id[:1].isupper()
            ):
                # Constructor keyword fields: dataclass-style classes store
                # keyword arguments verbatim, so ``name.field`` is defined
                # by the keyword's expression.
                for keyword in value.keywords:
                    if keyword.arg is not None:
                        analysis.defs[f"{name}.{keyword.arg}"] = keyword.value
    for clause in analysis.contract.requires:
        clause_ast = _parse_clause(clause)
        if not isinstance(clause_ast, ast.Compare):
            continue
        operands = [clause_ast.left, *clause_ast.comparators]
        for position, op in enumerate(clause_ast.ops):
            if not isinstance(op, _RELATIONAL_OPS):
                continue
            left_key = key_of(operands[position])
            right_key = key_of(operands[position + 1])
            if left_key is not None and right_key is not None:
                analysis.relational_facts.append((left_key, type(op), right_key))


def function_draft(
    module: SourceModule, qualname: str, func: ast.FunctionDef | ast.AsyncFunctionDef
) -> FunctionAnalysis:
    """``func``'s analysis before its fixpoint: names, stores and defs.

    Built on first use and cached on the module, with no CFG and no env.
    Both passes of :class:`ModuleIntervals` start from it, and R1304
    reads its ``defs`` in modules that get no interval analysis.
    """
    drafts = module.derived(_draft_cache)
    if func not in drafts:
        # ``C.m`` is a method of C; ``f.<locals>.g`` and ``f`` are not.
        owner = qualname.rpartition(".")[0].rpartition(".")[2]
        analysis = FunctionAnalysis(
            node=func,
            qualname=qualname,
            class_name=owner if owner and owner != "<locals>" else None,
            contract=_contract_of(func),
        )
        analysis.param_names = set(_param_names(func))
        for node in module.index.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
                analysis.assigned_names.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                analysis.poisoned.update(node.names)
            elif isinstance(node, ast.NamedExpr):
                analysis.has_walrus = True
        _collect_defs(module.index.scope(func), analysis)
        drafts[func] = analysis
    return drafts[func]


def _draft_cache(module: SourceModule) -> dict[ast.AST, FunctionAnalysis]:
    return {}


def _stores_self_attr(scope: tuple[ast.AST, ...]) -> bool:
    """True when a node of ``scope`` stores or deletes a ``self.<attr>``."""
    return any(
        isinstance(node, ast.Attribute)
        and not isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        for node in scope
    )


def _bound_names(scope: tuple[ast.AST, ...], skip: set[int]) -> set[str]:
    """Names the nodes of one scope bind, leaving out the targets whose
    ``id`` is in ``skip`` and comprehension targets (their own scope)."""
    excluded = skip | {
        id(name)
        for node in scope
        if isinstance(node, ast.comprehension)
        for name in ast.walk(node.target)
    }
    names: set[str] = set()
    for node in scope:
        if isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Load) and id(node) not in excluded:
                names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


def _walrus_names(stmt: ast.stmt) -> set[str]:
    """Names bound by ``:=`` anywhere in the statement (dropped to TOP)."""
    names: set[str] = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _join_envs(a: Env, b: Env) -> Env:
    out: Env = {}
    for key, value in a.items():
        other = b.get(key)
        if other is None:
            continue
        joined = value.join(other)
        if not joined.is_top:
            out[key] = joined
    return out


def _widen_envs(old: Env, new: Env) -> Env:
    out: Env = {}
    for key, value in old.items():
        other = new.get(key)
        if other is None:
            continue
        widened = value.widen(other)
        if not widened.is_top:
            out[key] = widened
    return out


class ModuleIntervals:
    """Interval facts for every function of one source module."""

    def __init__(self, module: SourceModule, lookup: CallLookup | None = None) -> None:
        self.module = module
        #: Answers the calls this module cannot resolve; None keeps the
        #: analysis module-local.
        self.lookup = lookup
        self.module_env: Env = dict(_WELL_KNOWN)
        self._functions: list[FunctionAnalysis] = []
        self._by_name: dict[str, FunctionAnalysis] = {}
        self._methods: dict[tuple[str, str], FunctionAnalysis] = {}
        self._class_bases: dict[str, tuple[str, ...]] = {}
        #: Names some function declares ``global``, so may rebind.
        self._global_names: set[str] = set()
        self._attr_facts: dict[str, dict[str, Interval]] = {}
        #: Set for pass 2 only: pass 1 derives the attribute facts that
        #: contracted methods read, which rest on contracts alone.
        self._seed_contract = False
        #: expr -> where it is evaluated, one tuple per statement.
        self._node_map: dict[ast.AST, _Place] = {}
        self._ensures_stack: set[str] = set()
        self._build()

    # ------------------------------------------------------------------
    # Public queries
    # ------------------------------------------------------------------
    def interval_of(self, expr: ast.AST) -> Interval:
        """Abstract value of an expression node of this module's tree.

        A place no feasible path reaches is the empty interval, which
        proves every query; an abandoned analysis answers TOP.
        """
        entry = self._node_map.get(expr)
        if entry is None:
            return TOP
        analysis, stmt, mask, assumed = entry
        env: Env | None = {}
        if analysis is not None:
            if analysis.abandoned:
                return TOP
            env = analysis.env_at.get(id(stmt))
            if env is None:  # statically unreachable
                return _EMPTY
            if mask:
                env = {
                    key: value
                    for key, value in env.items()
                    if key.split(".", 1)[0] not in mask
                }
        scope = set(mask)
        for test, holds in assumed:
            env = self._refine(dict(env), test, holds, analysis, scope)
            if env is None:  # the test cannot hold here
                return _EMPTY
        return self._eval(expr, env, analysis, scope)

    def proves_nonzero(self, expr: ast.AST) -> bool:
        """True when the engine proved ``expr != 0`` at its use site."""
        return self.interval_of(expr).is_nonzero

    def proves_positive(self, expr: ast.AST) -> bool:
        """True when the engine proved ``expr > 0`` at its use site."""
        return self.interval_of(expr).is_positive

    def proves_nonnegative(self, expr: ast.AST) -> bool:
        """True when the engine proved ``expr >= 0`` at its use site."""
        return self.interval_of(expr).is_nonnegative

    def function_analyses(self) -> list[FunctionAnalysis]:
        """Every function analysis of this module, in definition order."""
        return list(self._functions)

    def class_attr_facts(self, class_name: str) -> dict[str, Interval]:
        """``self.<attr>`` intervals derived for one class (or empty)."""
        return dict(self._attr_facts.get(class_name, {}))

    def contract_verdicts(self) -> list[ClauseVerdict]:
        """Static status of every contract clause declared in this module."""
        verdicts: list[ClauseVerdict] = []
        for analysis in self._functions:
            contract = analysis.contract
            if not contract:
                continue
            lineno = analysis.node.lineno
            for clause in contract.requires:
                verdicts.append(
                    ClauseVerdict(analysis.qualname, "requires", clause, lineno, "assumed")
                )
            for clause in contract.ensures:
                verdict = self._ensures_verdict(analysis, clause)
                verdicts.append(
                    ClauseVerdict(analysis.qualname, "ensures", clause, lineno, verdict)
                )
        return verdicts

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        drafts = [
            function_draft(self.module, qualname, func)
            for func, qualname in self._collect_functions(self.module.tree)
        ]
        self._build_module_env()
        self._attr_facts = self._derive_attr_facts(drafts)
        # Pass 2: the real analyses, with attribute facts seeded at entry.
        self._seed_contract = True
        for draft in drafts:
            analysis = self._analyze(draft)
            self._functions.append(analysis)
            if draft.class_name is None:
                self._by_name.setdefault(draft.node.name, analysis)
            else:
                self._methods.setdefault((draft.class_name, draft.node.name), analysis)
        for analysis in self._functions:
            self._map_function(analysis)
        module_level: _Place = (None, None, frozenset(), ())
        for stmt in self.module.tree.body:
            self._map_node(stmt, module_level)

    def _build_module_env(self) -> None:
        """Fold straight-line top-level constant assignments into facts.

        Evaluation is sequential (later constants may reference earlier
        ones); a name assigned more than once keeps the join of all its
        values, since functions may read it at any program point.  A name
        also bound any other way (a loop, an import, ``global``) is dropped.
        """
        tree = self.module.tree
        folded_targets: set[int] = set()
        reassigned: set[str] = set()
        for stmt in tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None:
                continue
            interval = self._eval(value, self.module_env, None)
            for target in targets:
                folded_targets.add(id(target))
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                folded = interval
                if name in reassigned:
                    folded = self.module_env.get(name, TOP).join(interval)
                reassigned.add(name)
                if folded.is_top:
                    self.module_env.pop(name, None)
                else:
                    self.module_env[name] = folded
        rebound = _bound_names(self.module.index.scope(tree), folded_targets)
        for name in rebound | self._global_names:
            self.module_env.pop(name, None)

    def _collect_functions(
        self, tree: ast.Module
    ) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str]]:
        def visit(
            node: ast.AST, prefix: str
        ) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str]]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}"
                    yield child, qualname
                    yield from visit(child, f"{qualname}.<locals>.")
                elif isinstance(child, ast.Global):
                    self._global_names.update(child.names)
                elif isinstance(child, ast.ClassDef):
                    self._class_bases[child.name] = tuple(
                        base.id if isinstance(base, ast.Name) else base.attr
                        for base in child.bases
                        if isinstance(base, (ast.Name, ast.Attribute))
                    )
                    yield from visit(child, f"{prefix}{child.name}.")
                else:
                    yield from visit(child, prefix)

        yield from visit(tree, "")

    def _class_relatives(self, class_name: str) -> set[str]:
        """``class_name`` plus every in-module class connected to it by
        inheritance edges (ancestors, descendants, and siblings through a
        shared in-module base) — any of them may be the runtime type of
        ``self`` in one of the class's methods."""
        relatives = {class_name}
        changed = True
        while changed:
            changed = False
            for name, bases in self._class_bases.items():
                in_module_bases = {base for base in bases if base in self._class_bases}
                connected = name in relatives or relatives & in_module_bases
                if connected:
                    for member in {name} | in_module_bases:
                        if member not in relatives:
                            relatives.add(member)
                            changed = True
        return relatives

    def _derive_attr_facts(
        self, drafts: list[FunctionAnalysis]
    ) -> dict[str, dict[str, Interval]]:
        """Pass 1: the ``self.<attr>`` facts of each class.

        Each method whose own statements store or delete a
        ``self.<attr>`` (the only statements :meth:`_collect_attr_stmt`
        reads) is analyzed without attribute facts, and what it stores
        is joined over the class and its in-module relatives.
        """
        per_class: dict[str, dict[str, Interval]] = {}
        poisoned: dict[str, set[str]] = {}
        for draft in drafts:
            if draft.class_name is None:
                continue
            facts = per_class.setdefault(draft.class_name, {})
            bad = poisoned.setdefault(draft.class_name, set())
            if not _stores_self_attr(self.module.index.scope(draft.node)):
                continue
            analysis = self._analyze(draft)
            if analysis.cfg is None:
                continue
            for block in analysis.cfg.blocks:
                for stmt in block.statements:
                    self._collect_attr_stmt(stmt, analysis, facts, bad)
        # Join facts across in-module relatives: a method of C may run on
        # any subclass instance, and inherited __init__ code on C itself.
        merged: dict[str, dict[str, Interval]] = {}
        for class_name in per_class:
            relatives = self._class_relatives(class_name)
            facts: dict[str, Interval] = {}
            bad = set().union(*(poisoned.get(rel, set()) for rel in relatives))
            for relative in relatives:
                for attr, interval in per_class.get(relative, {}).items():
                    if attr in facts:
                        facts[attr] = facts[attr].join(interval)
                    else:
                        facts[attr] = interval
            merged[class_name] = {
                attr: interval
                for attr, interval in facts.items()
                if attr not in bad and not interval.is_top
            }
        return merged

    def _collect_attr_stmt(
        self,
        stmt: ast.stmt,
        analysis: FunctionAnalysis,
        facts: dict[str, Interval],
        poisoned: set[str],
    ) -> None:
        def self_attr(target: ast.expr) -> str | None:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                return target.attr
            return None

        def record(attr: str, interval: Interval) -> None:
            facts[attr] = facts[attr].join(interval) if attr in facts else interval

        env = analysis.env_at.get(id(stmt))
        rebound: list[ast.expr] = []
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                attr = self_attr(target)
                if attr is None:
                    rebound.append(target)
                elif env is None:
                    record(attr, TOP)
                else:
                    record(attr, self._eval(stmt.value, env, analysis))
        elif isinstance(stmt, (ast.AugAssign, ast.For, ast.AsyncFor)):
            rebound.append(stmt.target)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            rebound.extend(
                item.optional_vars
                for item in stmt.items
                if item.optional_vars is not None
            )
        elif isinstance(stmt, ast.Delete):
            rebound.extend(stmt.targets)
        # An attribute rebound any other way, at any depth of a target,
        # may take any value.
        for target in rebound:
            for node in ast.walk(target):
                if isinstance(node, ast.Attribute) and not isinstance(
                    node.ctx, ast.Load
                ):
                    attr = self_attr(node)
                    if attr is not None:
                        poisoned.add(attr)

    # ------------------------------------------------------------------
    # Per-function fixpoint
    # ------------------------------------------------------------------
    def _entry_env(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef, class_name: str | None
    ) -> Env:
        env: Env = {}
        params = _param_names(func)
        if class_name is not None and params and params[0] == "self":
            for attr, interval in self._attr_facts.get(class_name, {}).items():
                env[f"self.{attr}"] = interval
        contract = _contract_of(func)
        if self._seed_contract and not contract:
            for key in _ESTIMATOR_CONTRACT:
                if key.split(".", 1)[0] in params:
                    env[key] = self._meet_best(env.get(key, TOP), Interval.at_least(1))
        scope_locals = set(params)
        for clause in contract.requires:
            clause_ast = _parse_clause(clause)
            if clause_ast is None:
                continue
            refined = self._refine(env, clause_ast, True, None, scope_locals)
            if refined is not None:
                env = refined
        return env

    def _analyze(self, draft: FunctionAnalysis) -> FunctionAnalysis:
        """A fresh analysis of ``draft``'s function, run to its fixpoint."""
        analysis = replace(draft, env_at={}, returns=[])
        func = analysis.node
        cfg = build_cfg(func)
        analysis.cfg = cfg

        in_envs: dict[int, Env] = {cfg.entry: self._entry_env(func, analysis.class_name)}
        visits: dict[int, int] = {}
        worklist: list[int] = [cfg.entry]
        total_visits = 0
        while worklist:
            index = worklist.pop(0)
            total_visits += 1
            if total_visits > _MAX_VISITS:
                analysis.abandoned = True
                analysis.env_at = {}
                return analysis
            visits[index] = visits.get(index, 0) + 1
            block = cfg.blocks[index]
            env = dict(in_envs.get(index, {}))
            for stmt in block.statements:
                env = self._transfer(stmt, env, analysis, record=False)
            for edge in block.edges:
                out = {} if edge.forget else env
                if edge.test is not None:
                    refined = self._refine(
                        dict(env), edge.test, edge.assume, analysis, None
                    )
                    if refined is None:
                        continue  # statically infeasible edge
                    out = refined
                old = in_envs.get(edge.dst)
                if old is None:
                    in_envs[edge.dst] = dict(out)
                    worklist.append(edge.dst)
                    continue
                joined = _join_envs(old, out)
                if edge.dst in cfg.loop_heads and visits.get(edge.dst, 0) >= 1:
                    joined = _widen_envs(old, joined)
                if joined != old:
                    in_envs[edge.dst] = joined
                    if edge.dst not in worklist:
                        worklist.append(edge.dst)

        # Recording pass over the stabilized envs.
        for block in cfg.blocks:
            env = dict(in_envs.get(block.index, {})) if block.index in in_envs else None
            for stmt in block.statements:
                if env is None:
                    continue  # unreachable block: leave env_at empty
                env = self._transfer(stmt, env, analysis, record=True)
        return analysis

    # ------------------------------------------------------------------
    # Statement transfer
    # ------------------------------------------------------------------
    def _kill(self, env: Env, root_key: str) -> None:
        env.pop(root_key, None)
        prefix = root_key + "."
        for key in [k for k in env if k.startswith(prefix)]:
            del env[key]

    def _set(self, env: Env, key: str, interval: Interval) -> None:
        self._kill(env, key)
        if not interval.is_top:
            env[key] = interval

    def _transfer(
        self, stmt: ast.stmt, env: Env, analysis: FunctionAnalysis, *, record: bool
    ) -> Env:
        if analysis.has_walrus:
            for name in _walrus_names(stmt):
                self._kill(env, name)
        if record:
            analysis.env_at[id(stmt)] = dict(env)

        if isinstance(stmt, ast.Assign):
            self._transfer_assign(stmt.targets, stmt.value, env, analysis)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._transfer_assign([stmt.target], stmt.value, env, analysis)
        elif isinstance(stmt, ast.AugAssign):
            key = key_of(stmt.target)
            if key is not None and "[" not in key and key.split(".", 1)[0] not in analysis.poisoned:
                current = self._lookup(key, env, analysis)
                amount = self._eval(stmt.value, env, analysis)
                self._set(env, key, self._binop(type(stmt.op), current, amount))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._kill_targets(stmt.target, env)
        elif isinstance(stmt, ast.Return):
            if record:
                analysis.returns.append((stmt, dict(env)))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._kill_targets(item.optional_vars, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                target_key = key_of(target)
                if target_key is not None:
                    self._kill(env, target_key)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".", 1)[0]
                self._kill(env, bound)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            self._kill(env, stmt.name)
        # If / While / Assert / Raise / Expr / Pass: no state change here —
        # branch effects live on the CFG edges.
        return env

    def _transfer_assign(
        self,
        targets: list[ast.expr],
        value: ast.expr,
        env: Env,
        analysis: FunctionAnalysis,
    ) -> None:
        interval, elements = self._eval_with_elements(value, env, analysis)
        for target in targets:
            key = key_of(target)
            if key is not None:
                if "[" in key or key.split(".", 1)[0] in analysis.poisoned:
                    self._kill(env, key)
                else:
                    self._set(env, key, interval)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for position, element in enumerate(target.elts):
                    sub_key = key_of(element)
                    if sub_key is None:
                        self._kill_targets(element, env)
                        continue
                    if "[" in sub_key or sub_key.split(".", 1)[0] in analysis.poisoned:
                        self._kill(env, sub_key)
                        continue
                    self._set(env, sub_key, elements.get(position, TOP))

    def _kill_targets(self, target: ast.expr, env: Env) -> None:
        """Drop every key a store target binds: a loop or ``with`` target,
        or a nested or starred element of an unpacking."""
        for node in ast.walk(target):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                node_key = key_of(node)
                if node_key is not None:
                    self._kill(env, node_key)

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------
    def _lookup(
        self,
        key: str,
        env: Env,
        analysis: FunctionAnalysis | None,
        scope_locals: set[str] | None = None,
    ) -> Interval:
        found = env.get(key)
        if found is not None:
            return found
        root = key.split(".", 1)[0]
        if analysis is not None:
            if root in analysis.poisoned:
                return TOP
            if root in analysis.locals:
                return TOP  # a local we know nothing about here
        if scope_locals is not None and root in scope_locals:
            return TOP
        return self.module_env.get(key, TOP)

    def _eval(
        self,
        expr: ast.AST,
        env: Env,
        analysis: FunctionAnalysis | None,
        scope_locals: set[str] | None = None,
    ) -> Interval:
        interval, _elements = self._eval_with_elements(expr, env, analysis, scope_locals)
        return interval

    def _eval_with_elements(
        self,
        expr: ast.AST,
        env: Env,
        analysis: FunctionAnalysis | None,
        scope_locals: set[str] | None = None,
    ) -> tuple[Interval, dict[int, Interval]]:
        if isinstance(expr, ast.Constant):
            value = expr.value
            if isinstance(value, bool):
                return Interval.const(1.0 if value else 0.0), {}
            if isinstance(value, (int, float)):
                return Interval.const(float(value)), {}
            return TOP, {}
        key = key_of(expr)
        if key is not None:
            return self._lookup(key, env, analysis, scope_locals), {}
        if isinstance(expr, ast.BinOp):
            left = self._eval(expr.left, env, analysis, scope_locals)
            right = self._eval(expr.right, env, analysis, scope_locals)
            return self._binop(type(expr.op), left, right), {}
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
            return self._eval(expr.operand, env, analysis, scope_locals).neg(), {}
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env, analysis, scope_locals)
        if isinstance(expr, ast.Tuple):
            elements = {
                position: self._eval(element, env, analysis, scope_locals)
                for position, element in enumerate(expr.elts)
            }
            return TOP, elements
        if isinstance(expr, ast.Await):
            return self._eval(expr.value, env, analysis, scope_locals), {}
        if isinstance(expr, ast.NamedExpr):
            return self._eval(expr.value, env, analysis, scope_locals), {}
        return TOP, {}

    @staticmethod
    def _binop(op: type[ast.operator], left: Interval, right: Interval) -> Interval:
        if op is ast.Add:
            return left.add(right)
        if op is ast.Sub:
            return left.sub(right)
        if op is ast.Mult:
            return left.mul(right)
        if op is ast.Div:
            return left.div(right)
        if op is ast.Pow:
            return left.pow(right)
        if op is ast.LShift:
            return left.lshift(right)
        return TOP

    def _eval_call(
        self,
        call: ast.Call,
        env: Env,
        analysis: FunctionAnalysis | None,
        scope_locals: set[str] | None,
    ) -> tuple[Interval, dict[int, Interval]]:
        func = call.func
        root: str | None = None
        name: str | None = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            root, name = func.value.id, func.attr

        def arg(index: int) -> Interval:
            if index < len(call.args) and not isinstance(call.args[index], ast.Starred):
                return self._eval(call.args[index], env, analysis, scope_locals)
            return TOP

        has_args = bool(call.args) and not any(
            isinstance(a, ast.Starred) for a in call.args
        )
        if root is None and name is not None and not call.keywords:
            if name == "abs" and has_args:
                return arg(0).abs(), {}
            if name in ("max", "min") and len(call.args) >= 2 and has_args:
                pointwise = Interval.maximum if name == "max" else Interval.minimum
                values = [arg(i) for i in range(len(call.args))]
                return functools.reduce(pointwise, values), {}
            if name == "float" and has_args:
                literal = call.args[0]
                if isinstance(literal, ast.Constant) and isinstance(
                    literal.value, str
                ):
                    # Fold float("inf") / float("-inf"): extended-real
                    # endpoints the sanity-bound clauses compare against.
                    try:
                        folded = float(literal.value)
                    except ValueError:
                        return TOP, {}
                    if math.isnan(folded):
                        return TOP, {}
                    return Interval.const(folded), {}
                return arg(0), {}
            if name == "int" and has_args:
                return arg(0).to_int(), {}
        owner, _, attr = (qualified_name(self.module, func) or "").rpartition(".")
        if owner in ("math", "numpy"):
            transferred = self._math_call(attr, call, env, analysis, scope_locals)
            if transferred is not None:
                return transferred, {}
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "astype"
            and len(call.args) == 1
        ):
            dtype = call.args[0]
            dtype_name = (
                dtype.attr
                if isinstance(dtype, ast.Attribute)
                else getattr(dtype, "id", None)
            )
            value = self._eval(func.value, env, analysis, scope_locals)
            # Casts to signed/float dtypes preserve numeric bounds;
            # unsigned targets wrap negative values around, so only a
            # nonnegative source survives the cast with its bounds.
            if isinstance(dtype_name, str) and (
                not dtype_name.startswith("u") or value.is_nonnegative
            ):
                # join with to_int() so integer targets' truncation
                # stays covered; exact for float targets.
                return value.to_int().join(value), {}
            return TOP, {}
        return self._project_call(call, env, analysis, scope_locals)

    def _math_call(
        self,
        name: str,
        call: ast.Call,
        env: Env,
        analysis: FunctionAnalysis | None,
        scope_locals: set[str] | None,
    ) -> Interval | None:
        if not call.args or isinstance(call.args[0], ast.Starred):
            return None
        value = self._eval(call.args[0], env, analysis, scope_locals)
        if name == "sqrt":
            return value.sqrt()
        if name == "exp":
            return value.exp()
        if name in _LOGS and len(call.args) == 1:
            return value.log(_LOGS[name])
        if name in ("maximum", "fmax") and len(call.args) >= 2:
            other = self._eval(call.args[1], env, analysis, scope_locals)
            return value.maximum(other)
        if name in ("minimum", "fmin") and len(call.args) >= 2:
            other = self._eval(call.args[1], env, analysis, scope_locals)
            return value.minimum(other)
        if name == "count_nonzero":
            return Interval.nonnegative()
        if name in ("int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64"):
            if name.startswith("u") and not value.is_nonnegative:
                return TOP  # unsigned wrap-around of a negative value
            return value.to_int()
        return None

    # ------------------------------------------------------------------
    # Project calls and @ensures binding
    # ------------------------------------------------------------------
    def _resolve_callee(
        self, func: ast.expr, analysis: FunctionAnalysis | None
    ) -> FunctionAnalysis | None:
        if isinstance(func, ast.Name):
            return self._by_name.get(func.id)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and analysis is not None
            and analysis.class_name is not None
        ):
            for relative in self._class_relatives(analysis.class_name):
                found = self._methods.get((relative, func.attr))
                if found is not None:
                    return found
        return None

    def _resolve_call_view(
        self, call: ast.Call, analysis: FunctionAnalysis | None
    ) -> RemoteCallee | None:
        """Contract of the local callee, or of the one the lookup resolves."""
        callee = self._resolve_callee(call.func, analysis)
        if callee is not None and callee.contract.ensures:
            attrs: dict[str, Interval] = {}
            if callee.class_name is not None:
                attrs = dict(self._attr_facts.get(callee.class_name, {}))
            return RemoteCallee(
                qualname=callee.qualname,
                param_names=tuple(_param_names(callee.node)),
                contract=callee.contract,
                self_attrs=attrs,
            )
        if self.lookup is not None:
            return self.lookup(self.module, call)
        return None

    def _project_call(
        self,
        call: ast.Call,
        env: Env,
        analysis: FunctionAnalysis | None,
        scope_locals: set[str] | None,
    ) -> tuple[Interval, dict[int, Interval]]:
        view = self._resolve_call_view(call, analysis)
        if view is None or view.qualname in self._ensures_stack:
            return TOP, {}
        self._ensures_stack.add(view.qualname)
        try:
            argenv = self._bind_arguments(call, view, env, analysis, scope_locals)
            result, elements = TOP, {}
            for clause in view.contract.ensures:
                clause_ast = _parse_clause(clause)
                if not isinstance(clause_ast, ast.Compare) or len(clause_ast.ops) != 1:
                    continue
                left_key = key_of(clause_ast.left)
                if left_key is None or not left_key.startswith("result"):
                    continue
                op = type(clause_ast.ops[0])
                assume = _ASSUME.get(op)
                if assume is None:
                    continue
                bound = self._eval(
                    clause_ast.comparators[0], argenv, None, set(view.param_names)
                )
                if left_key == "result":
                    refined = assume(result, bound)
                    if refined is not None:
                        result = refined
                elif left_key.startswith("result["):
                    position = int(left_key[len("result[") : -1])
                    refined = assume(elements.get(position, TOP), bound)
                    if refined is not None:
                        elements[position] = refined
            return result, elements
        finally:
            self._ensures_stack.discard(view.qualname)

    def _bind_arguments(
        self,
        call: ast.Call,
        callee: RemoteCallee,
        env: Env,
        analysis: FunctionAnalysis | None,
        scope_locals: set[str] | None,
    ) -> Env:
        params = list(callee.param_names)
        if params and params[0] in ("self", "cls"):
            # ``self.<attr>`` facts of the callee's class hold for the
            # receiver, so clauses over ``self.x`` stay evaluable.
            params = params[1:]
        argenv: Env = {}
        for attr, interval in callee.self_attrs.items():
            argenv[f"self.{attr}"] = interval
        for position, arg_node in enumerate(call.args):
            if isinstance(arg_node, ast.Starred) or position >= len(params):
                break
            value = self._eval(arg_node, env, analysis, scope_locals)
            if not value.is_top:
                argenv[params[position]] = value
        for keyword in call.keywords:
            if keyword.arg is not None and keyword.arg in params:
                value = self._eval(keyword.value, env, analysis, scope_locals)
                if not value.is_top:
                    argenv[keyword.arg] = value
        return argenv

    # ------------------------------------------------------------------
    # Relational (symbolic-difference) reasoning
    # ------------------------------------------------------------------
    #: Recursion budget for the symbolic rules; contract clauses and
    #: estimator return expressions are small, so this is generous.
    _SYM_DEPTH = 12

    @staticmethod
    def _meet_best(current: Interval, candidate: Interval) -> Interval:
        """Tighten ``current`` by ``candidate``; both over-approximate the
        same value, so intersection is sound (kept as-is if the documented
        int-cast caveat ever makes them disagree)."""
        met = current.meet(candidate)
        return met if met is not None else current

    def _stable_root(self, key: str, analysis: FunctionAnalysis | None) -> bool:
        """A key whose value cannot differ between its binding and any use:
        the root name is never stored in this function (parameter, global)
        or is a non-parameter local with exactly one recorded definition."""
        if analysis is None:
            return False
        root = key.split(".", 1)[0]
        if root in analysis.poisoned:
            return False
        count = analysis.store_counts.get(root, 0)
        if count == 0:
            return True
        return (
            count == 1 and root not in analysis.param_names and root in analysis.defs
        )

    def _expr_stable(self, expr: ast.expr, analysis: FunctionAnalysis | None) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if not self._stable_root(node.id, analysis):
                    return False
        return True

    def _canon(self, key: str, analysis: FunctionAnalysis | None) -> str:
        """Canonical form of a key under single-assignment copy chasing:
        ``d = profile.distinct`` makes ``d`` canonically ``profile.distinct``."""
        if analysis is None:
            return key
        seen: set[str] = set()
        while key not in seen:
            seen.add(key)
            expr = analysis.defs.get(key)
            target = key_of(_peel_cast(expr)) if expr is not None else None
            if target is None or not self._stable_root(target, analysis):
                return key
            key = target
        return key

    def _fact_diff(
        self, ca: str, cb: str, analysis: FunctionAnalysis | None
    ) -> Interval:
        """Interval of ``ca - cb`` implied by relational ``@requires`` facts."""
        if analysis is None:
            return TOP
        best = TOP
        for left_key, op, right_key in analysis.relational_facts:
            cl = self._canon(left_key, analysis)
            cr = self._canon(right_key, analysis)
            if not (
                self._stable_root(cl, analysis) and self._stable_root(cr, analysis)
            ):
                continue
            if (cl, cr) == (ca, cb):
                direct = True
            elif (cl, cr) == (cb, ca):
                direct = False
            else:
                continue
            if op is ast.Eq:
                candidate = Interval.const(0.0)
            elif (op is ast.GtE and direct) or (op is ast.LtE and not direct):
                candidate = Interval.nonnegative()
            elif (op is ast.Gt and direct) or (op is ast.Lt and not direct):
                candidate = Interval.positive()
            elif (op is ast.LtE and direct) or (op is ast.GtE and not direct):
                candidate = Interval.at_most(0.0)
            else:  # Lt direct / Gt mirrored
                candidate = Interval.at_most(0.0, nonzero=True)
            best = self._meet_best(best, candidate)
        return best

    def _sym_diff(
        self,
        a: ast.expr,
        b: ast.expr,
        env: Env,
        analysis: FunctionAnalysis | None,
        depth: int,
    ) -> Interval:
        """Interval of ``a - b``, sharpened by structural rules."""
        if depth > self._SYM_DEPTH:
            return TOP
        a = _peel_cast(a)
        b = _peel_cast(b)
        best = self._sym_eval(a, env, analysis, depth + 1).sub(
            self._sym_eval(b, env, analysis, depth + 1)
        )
        key_a = key_of(a)
        key_b = key_of(b)
        if key_a is not None and key_b is not None:
            canon_a = self._canon(key_a, analysis)
            canon_b = self._canon(key_b, analysis)
            if canon_a == canon_b and self._stable_root(canon_a, analysis):
                return Interval.const(0.0)
            best = self._meet_best(best, self._fact_diff(canon_a, canon_b, analysis))
        # Single-assignment definition chasing on either side.
        if key_a is not None and analysis is not None:
            defined = analysis.defs.get(key_a)
            if defined is not None and self._expr_stable(defined, analysis):
                best = self._meet_best(
                    best, self._sym_diff(defined, b, env, analysis, depth + 1)
                )
        if key_b is not None and analysis is not None:
            defined = analysis.defs.get(key_b)
            if defined is not None and self._expr_stable(defined, analysis):
                best = self._meet_best(
                    best, self._sym_diff(a, defined, env, analysis, depth + 1)
                )
        best = self._meet_best(best, self._sym_diff_binop(a, b, env, analysis, depth))
        best = self._meet_best(best, self._sym_diff_minmax(a, b, env, analysis, depth))
        return self._meet_best(best, self._sym_call_bounds(a, b, env, analysis, depth))

    def _sym_diff_binop(
        self,
        a: ast.expr,
        b: ast.expr,
        env: Env,
        analysis: FunctionAnalysis | None,
        depth: int,
    ) -> Interval:
        best = TOP
        if isinstance(a, ast.BinOp) and isinstance(a.op, ast.Add):
            # (x + y) - b  =  (x - b) + y  =  (y - b) + x
            for part, other in ((a.left, a.right), (a.right, a.left)):
                candidate = self._sym_diff(part, b, env, analysis, depth + 1).add(
                    self._sym_eval(other, env, analysis, depth + 1)
                )
                best = self._meet_best(best, candidate)
        if isinstance(a, ast.BinOp) and isinstance(a.op, ast.Div):
            divisor = self._sym_eval(a.right, env, analysis, depth + 1)
            if divisor.is_positive:
                # N/D - b = (N - b*D) / D for D > 0.
                scaled = ast.BinOp(left=b, op=ast.Mult(), right=a.right)
                numerator = self._sym_diff(a.left, scaled, env, analysis, depth + 1)
                best = self._meet_best(best, numerator.div(divisor))
        best = self._meet_best(best, self._sym_diff_mult(a, b, env, analysis, depth))
        return best

    def _sym_diff_mult(
        self,
        a: ast.expr,
        b: ast.expr,
        env: Env,
        analysis: FunctionAnalysis | None,
        depth: int,
    ) -> Interval:
        """Common-factor products: ``X*A - X*B = X * (A - B)``."""

        def factors(expr: ast.expr) -> list[tuple[ast.expr, ast.expr | None]]:
            # (factor, cofactor); cofactor None means an implicit 1.
            pairs: list[tuple[ast.expr, ast.expr | None]] = [(expr, None)]
            if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Mult):
                pairs.append((expr.left, expr.right))
                pairs.append((expr.right, expr.left))
            return pairs

        best = TOP
        one = ast.Constant(value=1.0)
        for factor_a, cofactor_a in factors(a):
            key_fa = key_of(_peel_cast(factor_a))
            if key_fa is None:
                continue
            canon_fa = self._canon(key_fa, analysis)
            if not self._stable_root(canon_fa, analysis):
                continue
            for factor_b, cofactor_b in factors(b):
                if cofactor_a is None and cofactor_b is None:
                    continue  # plain key-vs-key is handled upstream
                key_fb = key_of(_peel_cast(factor_b))
                if key_fb is None or self._canon(key_fb, analysis) != canon_fa:
                    continue
                factor_iv = self._sym_eval(factor_a, env, analysis, depth + 1)
                inner = self._sym_diff(
                    cofactor_a if cofactor_a is not None else one,
                    cofactor_b if cofactor_b is not None else one,
                    env,
                    analysis,
                    depth + 1,
                )
                best = self._meet_best(best, factor_iv.mul(inner))
        return best

    def _sym_diff_minmax(
        self,
        a: ast.expr,
        b: ast.expr,
        env: Env,
        analysis: FunctionAnalysis | None,
        depth: int,
    ) -> Interval:
        """``max(xs) - b`` is the max of ``x - b`` (and ``min`` likewise)."""
        if not (
            isinstance(a, ast.Call)
            and isinstance(a.func, ast.Name)
            and a.func.id in ("min", "max")
            and len(a.args) >= 2
            and not a.keywords
            and not any(isinstance(arg, ast.Starred) for arg in a.args)
        ):
            return TOP
        diffs = [self._sym_diff(arg, b, env, analysis, depth + 1) for arg in a.args]
        pick = max if a.func.id == "max" else min
        return Interval(pick(d.lo for d in diffs), pick(d.hi for d in diffs))

    def _sym_eval(
        self,
        expr: ast.expr,
        env: Env,
        analysis: FunctionAnalysis | None,
        depth: int,
    ) -> Interval:
        """Interval of ``expr``, sharpened beyond plain ``_eval`` by symbolic
        differences (``x - y`` and the ``N/D >= 1`` quotient rule)."""
        expr = _peel_cast(expr)
        best = self._eval(expr, env, analysis, {"result"})
        if depth > self._SYM_DEPTH or not isinstance(expr, ast.BinOp):
            return best
        if isinstance(expr.op, ast.Sub):
            return self._meet_best(
                best, self._sym_diff(expr.left, expr.right, env, analysis, depth + 1)
            )
        if isinstance(expr.op, (ast.Add, ast.Mult, ast.Div, ast.Pow)):
            left = self._sym_eval(expr.left, env, analysis, depth + 1)
            right = self._sym_eval(expr.right, env, analysis, depth + 1)
            best = self._meet_best(best, self._binop(type(expr.op), left, right))
            if isinstance(expr.op, ast.Div) and right.is_positive:
                # N/D sits on the same side of 1 as N - D when D > 0.
                numdiff = self._sym_diff(expr.left, expr.right, env, analysis, depth + 1)
                if numdiff.is_nonnegative:
                    best = self._meet_best(best, Interval.at_least(1.0))
                if numdiff.hi <= 0.0 and left.is_nonnegative:
                    best = self._meet_best(best, Interval(0.0, 1.0))
        return best

    def _sym_call_bounds(
        self,
        expr: ast.expr,
        other: ast.expr,
        env: Env,
        analysis: FunctionAnalysis | None,
        depth: int,
    ) -> Interval:
        """Interval of ``expr - other`` from a callee's ``@ensures`` bounds
        with caller argument expressions substituted for parameters.

        Handles both plain calls (clauses over ``result``) and attribute
        projections of a call result (``inner.value`` where ``inner`` is
        single-assigned from a call: clauses over ``result.value``)."""
        attr: str | None = None
        target = _peel_cast(expr)
        if isinstance(target, ast.Attribute):
            attr = target.attr
            base = _peel_cast(target.value)
            base_key = key_of(base)
            if (
                base_key is not None
                and analysis is not None
                and base_key in analysis.defs
                and self._stable_root(base_key, analysis)
            ):
                base = _peel_cast(analysis.defs[base_key])
            target = base
        if not isinstance(target, ast.Call):
            return TOP
        view = self._resolve_call_view(target, analysis)
        if view is None or view.qualname in self._ensures_stack:
            return TOP
        want_key = "result" if attr is None else f"result.{attr}"
        lo, hi = -float("inf"), float("inf")
        strict_lo = strict_hi = False
        self._ensures_stack.add(view.qualname)
        try:
            for clause in view.contract.ensures:
                clause_ast = _parse_clause(clause)
                if not isinstance(clause_ast, ast.Compare) or len(clause_ast.ops) != 1:
                    continue
                if key_of(clause_ast.left) != want_key:
                    continue
                op = type(clause_ast.ops[0])
                substituted = self._substitute_args(
                    clause_ast.comparators[0], target, view
                )
                if substituted is None:
                    continue
                diff = self._sym_diff(substituted, other, env, analysis, depth + 1)
                if op in (ast.GtE, ast.Gt):
                    if diff.lo > lo:
                        lo = diff.lo
                        strict_lo = op is ast.Gt
                elif op in (ast.LtE, ast.Lt):
                    if diff.hi < hi:
                        hi = diff.hi
                        strict_hi = op is ast.Lt
        finally:
            self._ensures_stack.discard(view.qualname)
        if lo > hi:
            return TOP  # inconsistent approximations: trust neither
        nonzero = (strict_lo and lo >= 0.0) or (strict_hi and hi <= 0.0)
        return Interval(lo, hi, nonzero)

    def _substitute_args(
        self, bound: ast.expr, call: ast.Call, view: RemoteCallee
    ) -> ast.expr | None:
        """Rewrite a callee ensures bound into the caller's frame; ``None``
        when any referenced parameter has no caller expression."""
        params = list(view.param_names)
        mapping: dict[str, ast.expr] = {}
        if params and params[0] in ("self", "cls"):
            receiver_name = params[0]
            params = params[1:]
            if isinstance(call.func, ast.Attribute):
                mapping[receiver_name] = call.func.value
                if receiver_name == "cls":
                    mapping.setdefault("self", call.func.value)
        for position, arg_node in enumerate(call.args):
            if isinstance(arg_node, ast.Starred) or position >= len(params):
                break
            mapping[params[position]] = arg_node
        for keyword in call.keywords:
            if keyword.arg is not None and keyword.arg in params:
                mapping[keyword.arg] = keyword.value
        referenced = {
            node.id
            for node in ast.walk(bound)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        needed = referenced & (set(view.param_names) | {"self", "cls"})
        if not needed <= set(mapping):
            return None
        if referenced - needed:
            # The clause references callee-module globals we cannot carry
            # into the caller's frame soundly.
            return None

        class _ParamSub(ast.NodeTransformer):
            def visit_Name(self, node: ast.Name) -> ast.AST:
                replacement = mapping.get(node.id)
                return replacement if replacement is not None else node

        return _ParamSub().visit(copy.deepcopy(bound))

    def _subst_result(
        self, clause_side: ast.expr, return_expr: ast.expr
    ) -> ast.expr | None:
        """Replace ``result`` / ``result[i]`` in a clause side with the
        actual return expression (or its tuple element)."""
        failed = False

        class _ResultSub(ast.NodeTransformer):
            def visit_Subscript(self, node: ast.Subscript) -> ast.AST:
                nonlocal failed
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "result"
                    and isinstance(node.slice, ast.Constant)
                    and isinstance(node.slice.value, int)
                ):
                    unwrapped = _peel_cast(return_expr)
                    index = node.slice.value
                    if isinstance(unwrapped, ast.Tuple) and 0 <= index < len(
                        unwrapped.elts
                    ):
                        return unwrapped.elts[index]
                    failed = True
                    return node
                return self.generic_visit(node)

            def visit_Name(self, node: ast.Name) -> ast.AST:
                if node.id == "result":
                    return return_expr
                return node

        substituted = _ResultSub().visit(copy.deepcopy(clause_side))
        if failed:
            return None
        return substituted

    # ------------------------------------------------------------------
    # Branch refinement
    # ------------------------------------------------------------------
    def _refine(
        self,
        env: Env,
        test: ast.expr,
        assume: bool,
        analysis: FunctionAnalysis | None,
        scope_locals: set[str] | None,
    ) -> Env | None:
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return self._refine(env, test.operand, not assume, analysis, scope_locals)
        if isinstance(test, ast.BoolOp):
            conjunctive = (isinstance(test.op, ast.And) and assume) or (
                isinstance(test.op, ast.Or) and not assume
            )
            if not conjunctive:
                return env  # disjunctive branch information: keep TOP
            refined: Env | None = env
            for value in test.values:
                refined = self._refine(refined, value, assume, analysis, scope_locals)
                if refined is None:
                    return None
            return refined
        if isinstance(test, ast.Compare):
            return self._refine_compare(env, test, assume, analysis, scope_locals)
        if isinstance(test, ast.Constant):
            return env if bool(test.value) == assume else None
        test_key = key_of(test)
        if test_key is not None and "[" not in test_key:
            current = self._lookup(test_key, env, analysis, scope_locals)
            refined_iv = (
                current.assume_ne(_ZERO) if assume else current.meet(_ZERO)
            )
            if refined_iv is None:
                return None
            env[test_key] = refined_iv
        return env

    def _refine_compare(
        self,
        env: Env,
        test: ast.Compare,
        assume: bool,
        analysis: FunctionAnalysis | None,
        scope_locals: set[str] | None,
    ) -> Env | None:
        operands = [test.left, *test.comparators]
        ops = [type(op) for op in test.ops]
        if not assume:
            if len(ops) != 1:
                return env  # ¬(a < b < c) is a disjunction; no single fact
            negated = _NEGATE.get(ops[0])
            if negated is None:
                return env
            ops = [negated]
        for position, op in enumerate(ops):
            if op not in _ASSUME:
                continue
            left, right = operands[position], operands[position + 1]
            left_iv = self._eval(left, env, analysis, scope_locals)
            right_iv = self._eval(right, env, analysis, scope_locals)
            left_key = key_of(left)
            if left_key is not None and "[" not in left_key:
                refined = _ASSUME[op](left_iv, right_iv)
                if refined is None:
                    return None
                env[left_key] = refined
            right_key = key_of(right)
            if right_key is not None and "[" not in right_key:
                refined = _ASSUME[_MIRROR[op]](right_iv, left_iv)
                if refined is None:
                    return None
                env[right_key] = refined
        return env

    # ------------------------------------------------------------------
    # Contract clause verification (definition site)
    # ------------------------------------------------------------------
    def _ensures_verdict(self, analysis: FunctionAnalysis, clause: str) -> str:
        clause_ast = _parse_clause(clause)
        if clause_ast is None or analysis.abandoned:
            return "runtime"
        if not analysis.returns:
            return "runtime"
        statuses = []
        for return_stmt, env in analysis.returns:
            if return_stmt.value is None:
                statuses.append("unknown")
                continue
            cenv = dict(env)
            result, elements = self._eval_with_elements(
                return_stmt.value, env, analysis
            )
            if not result.is_top:
                cenv["result"] = result
            for position, interval in elements.items():
                if not interval.is_top:
                    cenv[f"result[{position}]"] = interval
            statuses.append(
                self._prove(clause_ast, cenv, analysis, return_stmt.value)
            )
        if any(status == "violated" for status in statuses):
            return "violated"
        if statuses and all(status == "proved" for status in statuses):
            return "proved"
        return "runtime"

    def _prove(
        self,
        clause: ast.expr,
        env: Env,
        analysis: FunctionAnalysis | None,
        return_expr: ast.expr | None = None,
    ) -> str:
        """``proved`` / ``violated`` / ``unknown`` for a clause in ``env``."""
        if isinstance(clause, ast.BoolOp) and isinstance(clause.op, ast.And):
            parts = [
                self._prove(value, env, analysis, return_expr)
                for value in clause.values
            ]
            if any(part == "violated" for part in parts):
                return "violated"
            if all(part == "proved" for part in parts):
                return "proved"
            return "unknown"
        if not isinstance(clause, ast.Compare) or len(clause.ops) != 1:
            return "unknown"
        locals_hint = {"result"}
        left = self._eval(clause.left, env, analysis, locals_hint)
        right = self._eval(clause.comparators[0], env, analysis, locals_hint)
        op = type(clause.ops[0])
        if op not in _ASSUME:
            return "unknown"
        if _compare_proved(op, left, right):
            return "proved"
        if _compare_proved(_NEGATE[op], left, right):
            return "violated"
        if return_expr is not None and self._prove_relational(
            clause, env, analysis, return_expr
        ):
            return "proved"
        return "unknown"

    def _prove_relational(
        self,
        clause: ast.Compare,
        env: Env,
        analysis: FunctionAnalysis | None,
        return_expr: ast.expr,
    ) -> bool:
        """Symbolic-difference proof of ``left OP right`` at a return site.

        Interval comparison fails on clauses like ``result >= d`` when both
        sides are unbounded; proving the *difference* nonnegative instead
        only needs structural facts (shared subterms, ``@requires``
        relations, callee ``@ensures`` bounds substituted with caller
        argument expressions).
        """
        lexpr = self._subst_result(clause.left, return_expr)
        rexpr = self._subst_result(clause.comparators[0], return_expr)
        if lexpr is None or rexpr is None:
            return False
        diff = self._sym_diff(lexpr, rexpr, env, analysis, 0)
        op = type(clause.ops[0])
        if op is ast.GtE:
            return diff.is_nonnegative
        if op is ast.Gt:
            return diff.is_positive
        if op is ast.LtE:
            return diff.hi <= 0.0
        if op is ast.Lt:
            return diff.is_negative
        if op is ast.Eq:
            # lo >= 0 >= hi with lo <= hi pins the difference to exactly 0.
            return diff.lo >= 0.0 >= diff.hi and not diff.nonzero
        if op is ast.NotEq:
            return diff.is_nonzero
        return False

    # ------------------------------------------------------------------
    # Node-to-statement mapping (query support)
    # ------------------------------------------------------------------
    def _map_function(self, analysis: FunctionAnalysis) -> None:
        if analysis.cfg is None:
            return
        for block in analysis.cfg.blocks:
            for stmt in block.statements:
                place: _Place = (analysis, stmt, frozenset(), ())
                for expr_root in _statement_expressions(stmt):
                    self._map_node(expr_root, place)

    def _map_node(self, node: ast.AST, place: _Place) -> None:
        """Map ``node``'s expressions to ``place``, masking the names a class
        body, lambda or comprehension rebinds, and assuming the tests that a
        conditional, ``and``/``or`` or comprehension filter passed."""
        analysis, stmt, mask, assumed = place
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # Decorators, defaults and bases run here; a function body is
            # its own analysis, a class body runs here with its names masked.
            body: _Place | None = None
            if isinstance(node, ast.ClassDef):
                bound = _bound_names(self.module.index.scope(node), set())
                body = (analysis, stmt, mask | bound, ())
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, ast.stmt):
                    self._map_node(child, place)
                elif body is not None:
                    self._map_node(child, body)
            return
        self._node_map[node] = place
        if isinstance(node, ast.Lambda):
            self._map_node(node.args, place)
            if analysis is None:
                # A module-level name has one interval for the whole run,
                # so the body may read it whenever it is called; in a
                # function the body runs later, in an unknown environment.
                params = frozenset(_param_names(node))
                self._map_node(node.body, (None, None, mask | params, ()))
            return
        if isinstance(node, ast.IfExp):
            self._map_node(node.test, place)
            for branch, holds in ((node.body, True), (node.orelse, False)):
                branch_place = (analysis, stmt, mask, (*assumed, (node.test, holds)))
                self._map_node(branch, branch_place)
            return
        if isinstance(node, ast.BoolOp):
            # ``a and b`` evaluates b only if a holds, ``a or b`` only if not.
            holds = isinstance(node.op, ast.And)
            for value in node.values:
                self._map_node(value, (analysis, stmt, mask, assumed))
                assumed = (*assumed, (value, holds))
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            bound = set(mask)
            for generator in node.generators:
                for target_node in ast.walk(generator.target):
                    if isinstance(target_node, ast.Name):
                        bound.add(target_node.id)
            mask = frozenset(bound)
            # Outer tests may name what the targets rebind: drop them.  The
            # element runs once the last generator's filters pass.
            filters = tuple((test, True) for test in node.generators[-1].ifs)
            for child in ast.iter_child_nodes(node):
                inner = isinstance(child, ast.comprehension)
                self._map_node(child, (analysis, stmt, mask, () if inner else filters))
            return
        for child in ast.iter_child_nodes(node):
            self._map_node(child, place)


def _statement_expressions(stmt: ast.stmt) -> list[ast.AST]:
    """Expression roots that evaluate in the env *before* ``stmt``.

    Compound statements appearing in a block (If/While headers, For
    headers, With items) contribute only their condition/iterable parts —
    their bodies are separate statements in other blocks.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, ast.Assert):
        return [stmt.test] + ([stmt.msg] if stmt.msg is not None else [])
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target, stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        roots: list[ast.AST] = []
        for item in stmt.items:
            roots.append(item.context_expr)
            if item.optional_vars is not None:
                roots.append(item.optional_vars)
        return roots
    return [stmt]


def _compare_proved(op: type[ast.cmpop], left: Interval, right: Interval) -> bool:
    """True when ``left OP right`` holds for every pair of values."""
    if op is ast.GtE:
        return left.lo >= right.hi
    if op is ast.LtE:
        return left.hi <= right.lo
    if op is ast.Gt:
        if left.lo > right.hi:
            return True
        return (
            left.lo >= right.hi
            and left.lo == 0
            and right.hi == 0
            and (left.nonzero or right.nonzero)
        )
    if op is ast.Lt:
        if left.hi < right.lo:
            return True
        return (
            left.hi <= right.lo
            and left.hi == 0
            and right.lo == 0
            and (left.nonzero or right.nonzero)
        )
    if op is ast.Eq:
        return (
            left.lo == left.hi == right.lo == right.hi
            and left.lo not in (float("inf"), float("-inf"))
        )
    if op is ast.NotEq:
        if left.hi < right.lo or right.hi < left.lo:
            return True
        if right.lo == right.hi == 0 and left.is_nonzero:
            return True
        if left.lo == left.hi == 0 and right.is_nonzero:
            return True
        return False
    return False


def module_intervals(
    module: SourceModule, lookup: CallLookup | None = None
) -> ModuleIntervals:
    """Build (or fetch the cached) interval analysis for a module.

    The analysis is cached on the module, so ``lookup`` only matters to
    the call that builds it.
    """
    cached = getattr(module, "_interval_analysis", None)
    if isinstance(cached, ModuleIntervals):
        return cached
    analysis = ModuleIntervals(module, lookup)
    module._interval_analysis = analysis  # type: ignore[attr-defined]
    return analysis
