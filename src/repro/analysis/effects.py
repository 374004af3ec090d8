"""Per-function effect summaries: global-RNG use, global writes, call sites.

R301 detects *direct* global-RNG use from one module's AST.  The
cross-module flow rules (R302/R402 in :mod:`repro.analysis.rules.flow`)
need the same detection as a reusable summary — "which functions of this
module touch hidden global state, and whom do they call" — so the
collector lives here and both consumers share it.  The detection logic
and message strings are exactly R301's; the rule now delegates to
:func:`collect_rng_uses`.

The determinism/process-safety rule family (R1001–R1201) extends the
same summaries with three more observation kinds, all purely syntactic
and read through the module's import table
(:func:`~repro.analysis.source.qualified_name`):

* :func:`classify_call`/:func:`classify_expr` label calls/expressions
  that *introduce* nondeterminism — OS-entropy RNG construction, clock
  reads, ``os.environ``, ``id()``/``hash()``, set literals — with taint
  labels (:mod:`repro.analysis.dataflow.taint`).  Seeded construction
  (``default_rng(seed)``, ``SeedSequence(entropy)``) is deliberately
  *not* a source: an explicit seed is the sanctioned sanitizer.
* :func:`collect_artifact_writes` finds raw artifact writes —
  ``open(..., "w")``, ``Path.write_text`` — that bypass
  ``repro.resilience.atomic_write`` (rule R1201's evidence).
* :class:`FunctionEffects.global_mutations` / ``submitted_tasks`` record
  mutations of module-level mutable state and task submissions to
  ``run_sweep``/pool ``submit`` (rule R1101's evidence).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.dataflow.taint import (
    CLOCK,
    ENV,
    IDENTITY,
    RNG,
    SET_ORDER,
)
from repro.analysis.source import SourceModule, qualified_name

__all__ = [
    "FunctionEffects",
    "RngUse",
    "TaintSource",
    "ArtifactWrite",
    "GlobalMutation",
    "SubmittedTask",
    "collect_rng_uses",
    "classify_call",
    "classify_expr",
    "collect_artifact_writes",
    "defined_functions",
    "module_effects",
    "module_mutable_globals",
]

#: ``np.random.<name>`` attributes that do *not* touch global state:
#: constructors for explicit generators and bit generators.
_NUMPY_ALLOWED = frozenset(
    {
        "Generator",
        "default_rng",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
        "RandomState",  # constructing a *local* legacy state is explicit
    }
)


@dataclass(frozen=True)
class RngUse:
    """One global-RNG use site (import or call) with its R301 message."""

    line: int
    col: int
    message: str


def _call_use(module: SourceModule, node: ast.AST) -> RngUse | None:
    """The global-RNG use a call expresses, if any."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    owner, _, name = (qualified_name(module, func) or "").rpartition(".")
    if owner == "random":
        if isinstance(func, ast.Name):
            message = (
                f"{func.id}() comes from the stdlib random module (global "
                "state); use an explicit numpy.random.Generator"
            )
        else:
            message = (
                f"random.{name}() uses the process-global RNG; "
                "plumb an explicit numpy.random.Generator"
            )
        return RngUse(node.lineno, node.col_offset, message)
    if (
        owner == "numpy.random"
        and isinstance(func, ast.Attribute)
        and name not in _NUMPY_ALLOWED
    ):
        return RngUse(
            node.lineno,
            node.col_offset,
            f"np.random.{name}() mutates numpy's global RNG "
            "state; use a seeded Generator from default_rng",
        )
    return None


def collect_rng_uses(module: SourceModule) -> list[RngUse]:
    """Every global-RNG use in one module, import sites first.

    This is R301's full detection pass; the rule turns each
    :class:`RngUse` into a finding verbatim.
    """
    uses: list[RngUse] = []
    for node in module.index.nodes:
        if not isinstance(node, ast.ImportFrom):
            continue
        for alias in node.names:
            if node.module == "random":
                uses.append(
                    RngUse(
                        node.lineno,
                        node.col_offset,
                        f"'from random import {alias.name}' pulls in the "
                        "process-global RNG; use an explicit "
                        "numpy.random.Generator",
                    )
                )
            elif node.module == "numpy.random" and alias.name not in _NUMPY_ALLOWED:
                uses.append(
                    RngUse(
                        node.lineno,
                        node.col_offset,
                        f"'from numpy.random import {alias.name}' is a "
                        "global-state function; construct a Generator "
                        "with default_rng and pass it down",
                    )
                )
    for node in module.index.nodes:
        use = _call_use(module, node)
        if use is not None:
            uses.append(use)
    return uses


def defined_functions(
    module: SourceModule,
) -> tuple[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef], ...]:
    """``(qualname, node)`` for every function/method defined in a module."""
    return module.derived(_defined_functions)


def _defined_functions(
    module: SourceModule,
) -> tuple[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef], ...]:
    def walk(
        node: ast.AST, prefix: str
    ) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield qualname, child
                yield from walk(child, f"{qualname}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    return tuple(walk(module.tree, ""))


def _callee_key(func: ast.expr) -> str | None:
    """Dotted textual form of a call target (``f``, ``self.f``, ``m.sub.f``)."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass
class FunctionEffects:
    """What one function touches directly, plus whom it calls."""

    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: First direct global-RNG use inside the body, if any.
    rng_use: RngUse | None = None
    #: The body contains a ``global``/``nonlocal`` declaration.
    declares_global: bool = False
    #: Call targets as written in source (``f``, ``self.f``, ``mod.f``).
    calls: set[str] = field(default_factory=set)
    #: Mutations of module-level mutable state (R1101 evidence).
    global_mutations: list["GlobalMutation"] = field(default_factory=list)
    #: Task functions handed to ``run_sweep``/pool ``submit`` here.
    submitted_tasks: list["SubmittedTask"] = field(default_factory=list)

    @property
    def impure(self) -> bool:
        """Directly touches state the estimator contract forbids."""
        return self.rng_use is not None or self.declares_global


def module_effects(module: SourceModule) -> dict[str, FunctionEffects]:
    """Effect summary for every function defined in ``module``.

    Nested defs get their own entries (``outer.<locals>.inner``); each
    summary covers only its own scope, so effects of an inner function
    are not attributed to the outer one — the call edge carries them.
    """
    mutable_globals = module_mutable_globals(module.tree)
    effects: dict[str, FunctionEffects] = {}
    for qualname, func in defined_functions(module):
        summary = FunctionEffects(qualname=qualname, node=func)
        scope = module.index.scope(func)
        for node in scope:
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                summary.declares_global = True
            use = _call_use(module, node)
            if use is not None and summary.rng_use is None:
                summary.rng_use = use
            if isinstance(node, ast.Call):
                key = _callee_key(node.func)
                if key is not None:
                    summary.calls.add(key)
                task = _submitted_task(node)
                if task is not None:
                    summary.submitted_tasks.append(task)
        summary.global_mutations = _collect_global_mutations(
            scope, mutable_globals
        )
        effects[qualname] = summary
    return effects


# ----------------------------------------------------------------------
# Nondeterminism sources (taint labels for R1001/R1002)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaintSource:
    """One syntactic nondeterminism source with its taint label."""

    line: int
    col: int
    label: str
    reason: str


#: ``time.<fn>`` reads of some process clock.
_CLOCK_FUNCTIONS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "clock_gettime_ns",
    }
)

#: ``datetime``/``date`` constructors that read the wall clock.
_DATETIME_NOW = frozenset(
    {
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: RNG constructors that fall back to OS entropy when called with no
#: seed/entropy argument (the *seeded* forms are the sanctioned
#: sanitizer and are not sources).
_ENTROPY_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
        "RandomState",
    }
)

#: Callables that are OS-entropy sources regardless of arguments.
_ENTROPY_CALLS = frozenset(
    {
        "uuid.uuid1",
        "uuid.uuid4",
        "os.urandom",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbits",
    }
)

#: Filesystem enumeration whose order the OS does not define.
_FS_ORDER_CALLS = frozenset({"listdir", "scandir", "iterdir"})


def classify_expr(module: SourceModule, node: ast.expr) -> TaintSource | None:
    """Non-call expression sources: ``os.environ`` and set displays."""
    if qualified_name(module, node) == "os.environ":
        return TaintSource(
            node.lineno, node.col_offset, ENV,
            "os.environ read (value differs across environments)",
        )
    if isinstance(node, (ast.Set, ast.SetComp)):
        return TaintSource(
            node.lineno, node.col_offset, SET_ORDER,
            "set display (iteration order is hash-dependent)",
        )
    return None


def classify_call(module: SourceModule, node: ast.Call) -> TaintSource | None:
    """The taint a call introduces, if any.

    A source an import names matches by its qualified name; the RNG
    constructors and directory listings, reached through any receiver,
    match by their last name.  Recognition is conservative in the miss
    direction — an unrecognized call is simply not a source — so every
    report traces to a real source site.
    """
    func = node.func
    dotted = _callee_key(func)
    last = dotted.rsplit(".", 1)[-1] if dotted else None
    qualified = qualified_name(module, func)
    owner, _, name = (qualified or "").rpartition(".")

    if owner == "time" and name in _CLOCK_FUNCTIONS:
        spelling = func.id if isinstance(func, ast.Name) else f"time.{name}"
        return _clock(node, f"{spelling}()")
    if qualified in _DATETIME_NOW:
        return _clock(node, f"{dotted}()")

    if qualified == "os.getenv":
        return TaintSource(
            node.lineno, node.col_offset, ENV,
            "os.getenv() read (value differs across environments)",
        )

    # OS-entropy RNG: unseeded constructors and always-entropy calls.
    if last in _ENTROPY_CONSTRUCTORS and _lacks_seed(node):
        return TaintSource(
            node.lineno, node.col_offset, RNG,
            f"{last}() without entropy seeds from the OS; derive the "
            "stream from an explicit seed or SeedSequence",
        )
    if qualified in _ENTROPY_CALLS:
        return TaintSource(
            node.lineno, node.col_offset, RNG,
            f"{dotted}() draws OS entropy",
        )

    # Per-process identity: id() and builtin hash().
    if isinstance(func, ast.Name) and func.id == "id" and node.args:
        return TaintSource(
            node.lineno, node.col_offset, IDENTITY,
            "id() is a per-process address",
        )
    if isinstance(func, ast.Name) and func.id == "hash" and node.args:
        return TaintSource(
            node.lineno, node.col_offset, IDENTITY,
            "builtin hash() is salted by PYTHONHASHSEED for "
            "str/bytes and varies across processes",
        )

    # Filesystem enumeration order.
    if last in _FS_ORDER_CALLS or qualified in ("glob.glob", "glob.iglob"):
        return TaintSource(
            node.lineno, node.col_offset, SET_ORDER,
            f"{last}() enumerates the filesystem in OS-defined order; "
            "sort the result",
        )
    return None


def _clock(node: ast.Call, spelling: str) -> TaintSource:
    return TaintSource(
        node.lineno, node.col_offset, CLOCK,
        f"{spelling} reads a process clock",
    )


def _lacks_seed(node: ast.Call) -> bool:
    """True when an RNG constructor call provides no entropy/seed."""
    meaningful_args = [
        arg for arg in node.args
        if not (isinstance(arg, ast.Constant) and arg.value is None)
    ]
    if meaningful_args:
        return False
    for keyword in node.keywords:
        if keyword.arg in (None, "entropy", "seed"):
            if not (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is None
            ):
                return False
    return True


# ----------------------------------------------------------------------
# Raw artifact writes (R1201 evidence)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArtifactWrite:
    """One raw (non-atomic) artifact write site."""

    line: int
    col: int
    description: str


#: ``numpy`` savers that truncate-and-write in place.
_NUMPY_SAVERS = frozenset({"numpy.save", "numpy.savetxt", "numpy.savez"})


def collect_artifact_writes(module: SourceModule) -> list[ArtifactWrite]:
    """Every raw truncating write in a module, in source order.

    Flags ``open(path, "w"/"x"...)`` (truncate/create modes only —
    append mode is the journal's deliberate, documented contract),
    ``<path>.write_text(...)`` / ``<path>.write_bytes(...)``, and numpy
    savers.  All of them leave a torn file behind a mid-write crash;
    ``repro.resilience.atomic_write`` (tmp + fsync + rename) is the
    sanctioned replacement.

    Numpy savers targeting a name bound to an in-memory buffer
    (``BytesIO``/``StringIO``) anywhere in the module are skipped:
    serializing to memory and landing via ``atomic_write`` is exactly
    the sanctioned pattern, not a violation of it.
    """
    buffers = _buffer_names(module)
    writes: list[ArtifactWrite] = []
    for node in module.index.nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = _open_mode(node)
            if mode is not None and mode[:1] in ("w", "x"):
                writes.append(
                    ArtifactWrite(
                        node.lineno, node.col_offset,
                        f'open(..., "{mode}") truncates in place',
                    )
                )
        elif isinstance(func, ast.Attribute) and func.attr in (
            "write_text",
            "write_bytes",
        ):
            writes.append(
                ArtifactWrite(
                    node.lineno, node.col_offset,
                    f"Path.{func.attr}() truncates in place",
                )
            )
        elif qualified_name(module, func) in _NUMPY_SAVERS and not (
            node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in buffers
        ):
            writes.append(
                ArtifactWrite(
                    node.lineno, node.col_offset,
                    f"{_callee_key(func)}() truncates in place",
                )
            )
    writes.sort(key=lambda write: (write.line, write.col))
    return writes


def _buffer_names(module: SourceModule) -> set[str]:
    """Names bound to ``BytesIO``/``StringIO`` calls anywhere in a module."""
    names: set[str] = set()
    for node in module.index.nodes:
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        func = node.value.func
        constructor = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        if constructor not in ("BytesIO", "StringIO"):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _open_mode(node: ast.Call) -> str | None:
    """The literal mode string of an ``open()`` call, if present."""
    mode: ast.expr | None = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


# ----------------------------------------------------------------------
# Module-state mutations and task submissions (R1101 evidence)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GlobalMutation:
    """One mutation of module-level state inside a function body."""

    line: int
    col: int
    name: str
    detail: str


@dataclass(frozen=True)
class SubmittedTask:
    """One task-function argument handed to ``run_sweep``/``submit``."""

    line: int
    col: int
    #: The task-function expression as passed (for picklability checks).
    node: ast.expr
    #: Dotted textual form of the task when it is a name/attribute.
    callee: str | None


#: Constructors whose module-level result is shared mutable state.
_MUTABLE_CONSTRUCTORS = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
)

#: Method names that mutate a container in place.
_CONTAINER_MUTATORS = frozenset(
    {
        "append",
        "add",
        "update",
        "clear",
        "pop",
        "popitem",
        "setdefault",
        "extend",
        "insert",
        "remove",
        "discard",
        "sort",
        "appendleft",
        "extendleft",
    }
)


def module_mutable_globals(tree: ast.Module) -> set[str]:
    """Module-level names bound to mutable containers at import time."""
    names: set[str] = set()
    for statement in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(statement, ast.Assign):
            targets, value = statement.targets, statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            targets, value = [statement.target], statement.value
        if value is None:
            continue
        mutable = isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _MUTABLE_CONSTRUCTORS
        )
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _submitted_task(node: ast.Call) -> SubmittedTask | None:
    """The task argument of a ``run_sweep``/pool-``submit`` call, if any."""
    dotted = _callee_key(node.func)
    if dotted is None or not node.args:
        return None
    last = dotted.rsplit(".", 1)[-1]
    if last not in ("run_sweep", "submit"):
        return None
    task = node.args[0]
    return SubmittedTask(
        line=task.lineno,
        col=task.col_offset,
        node=task,
        callee=_callee_key(task),
    )


def _root_of(expr: ast.expr) -> ast.expr:
    """Leftmost node of an attribute/subscript chain."""
    node = expr
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node


def _collect_global_mutations(
    scope: tuple[ast.AST, ...],
    mutable_globals: set[str],
) -> list[GlobalMutation]:
    """Mutations of module-level state within one function's own ``scope``."""
    declared_global: set[str] = set()
    local_bound: set[str] = set()
    for node in scope:
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    local_bound.add(target.id)

    lazy_guarded = _lazy_guarded_names(scope)
    mutations: list[GlobalMutation] = []

    def container_target(name: str) -> bool:
        if name not in mutable_globals:
            return False
        # A plain local rebind shadows the module global (unless the
        # function *declared* it global, in which case writes go up).
        return name in declared_global or name not in local_bound

    for node in scope:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and target.id in declared_global:
                    detail = (
                        "lazy-initializes the module global (fork-unsafe: "
                        "a worker forked mid-init inherits torn state, a "
                        "spawned worker re-initializes independently)"
                        if target.id in lazy_guarded
                        else "rebinds the module global"
                    )
                    mutations.append(
                        GlobalMutation(
                            node.lineno, node.col_offset, target.id, detail
                        )
                    )
                elif isinstance(target, (ast.Subscript, ast.Attribute)):
                    root = _root_of(target)
                    if isinstance(root, ast.Name) and container_target(root.id):
                        mutations.append(
                            GlobalMutation(
                                node.lineno,
                                node.col_offset,
                                root.id,
                                "writes into the module-level container",
                            )
                        )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                root = _root_of(target)
                if isinstance(root, ast.Name) and container_target(root.id):
                    mutations.append(
                        GlobalMutation(
                            node.lineno,
                            node.col_offset,
                            root.id,
                            "deletes from the module-level container",
                        )
                    )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _CONTAINER_MUTATORS:
                root = _root_of(node.func.value)
                if isinstance(root, ast.Name) and container_target(root.id):
                    mutations.append(
                        GlobalMutation(
                            node.lineno,
                            node.col_offset,
                            root.id,
                            f".{node.func.attr}() mutates the module-level "
                            "container",
                        )
                    )
    mutations.sort(key=lambda mutation: (mutation.line, mutation.col))
    return mutations


def _lazy_guarded_names(scope: tuple[ast.AST, ...]) -> set[str]:
    """Names assigned under an ``if NAME is None`` guard (lazy init)."""
    guarded: set[str] = set()
    for node in scope:
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            guarded.add(test.left.id)
    return guarded
