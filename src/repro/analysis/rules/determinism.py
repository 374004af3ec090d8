"""Whole-program determinism rules: R1001 (value taint), R1002 (order taint).

The local rules pin down *direct* hazards (R301: global RNG, R801:
float accumulation patterns).  These two close the transitive gap for
nondeterminism generally: a clock read, an unseeded RNG, an environment
variable, ``id()``/``hash()``, or a set iteration anywhere in the tree
must not *flow into* the quantities the paper's claims are about.  Both
rules consume the interprocedural taint summaries of
:mod:`repro.analysis.dataflow.taintflow` and differ only in which label
family they consider and what the remediation is.

The sinks — where tainted data becomes a correctness problem — are:

* **estimator-stack and ``repro/db`` returns**: any function defined
  under the estimator stack (core/estimators/frequency/sketches/
  sampling) or the results database returns tainted data;
* **estimation methods anywhere**: ``estimate``/``_estimate_raw``/
  ``_interval``/``__call__`` on a known estimator class;
* **worker task functions**: anything resolvably submitted to
  ``run_sweep``/pool ``submit`` — its return value is a recorded
  result;
* **artifact payloads**: the data argument of ``atomic_write``,
  ``save_column``, ``Path.write_text``/``write_bytes``, and numpy
  savers, in any module — what lands on disk must be reproducible.

``repro/obs`` is exempt from R1001: telemetry records wall-clock spans
and environment fingerprints *by design*, and its separation from
results is enforced dynamically (manifest comparison in CI) rather
than statically.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import CallSiteResolver
from repro.analysis.dataflow.contract_lookup import in_estimator_stack
from repro.analysis.dataflow.taint import (
    ORDER_LABELS,
    VALUE_LABELS,
    Taint,
    describe,
)
from repro.analysis.dataflow.taintflow import ProjectTaint, project_taint
from repro.analysis.effects import _callee_key
from repro.analysis.findings import Finding
from repro.analysis.project import ProjectContext, context_cached
from repro.analysis.rules.base import ProjectRule, register
from repro.analysis.rules.purity import _is_estimation_method
from repro.analysis.source import SourceModule, qualified_name

__all__ = ["NondetTaint", "OrderSensitivity"]

#: Call targets (by last dotted component) whose listed argument is an
#: artifact payload; taint reaching it lands on disk.
_ARTIFACT_DATA_ARGS: dict[str, tuple[int, str | None]] = {
    "atomic_write": (1, "data"),
    "save_column": (0, "values"),
    "write_text": (0, "data"),
    "write_bytes": (0, "data"),
    "save": (1, "arr"),
    "savetxt": (1, "X"),
}

#: ``save``/``savetxt`` only count as ``numpy.save``/``numpy.savetxt`` —
#: matching every ``.save()`` method would drown the rule in noise.
_NUMPY_ONLY = frozenset({"save", "savetxt"})


def _is_sink_module(module: SourceModule) -> bool:
    return in_estimator_stack(module) or module.in_package("repro", "db")


#: An artifact write: module, function key, call, and its payload's taint.
_PayloadWrite = tuple[SourceModule, str, ast.Call, Taint]


def _taint_sinks(
    taint: ProjectTaint, modules: list[SourceModule]
) -> tuple[dict[str, str], list[_PayloadWrite]]:
    """Worker-task roots (→ their submission site) and every artifact write."""
    roots: dict[str, str] = {}
    writes: list[_PayloadWrite] = []
    graph = taint.graph
    for module in modules:
        resolver = CallSiteResolver(graph, module)
        keys = graph.keys_of(module)
        for key in keys:
            node = graph.nodes[key]
            for task in node.effects.submitted_tasks:
                if task.callee is None:
                    continue
                target = resolver.resolve(task.callee, node.effects.qualname)
                if target is not None and target not in roots:
                    roots[target] = (
                        f"submitted as a worker task at "
                        f"{module.path}:{task.line}"
                    )
        for key in sorted(keys):
            for call in module.index.scope(graph.nodes[key].effects.node):
                if not isinstance(call, ast.Call):
                    continue
                payload = _payload_argument(module, call)
                if payload is not None:
                    writes.append(
                        (module, key, call, taint.eval_argument(key, payload))
                    )
    return roots, writes


class _TaintRule(ProjectRule):
    """Shared sink enumeration for the two taint-label families."""

    #: Label family this rule reports on (set by subclasses).
    labels: frozenset[str] = frozenset()
    #: Remediation tail appended to every message.
    advice: str = ""
    #: Module subtrees exempt from this family.
    exempt_packages: tuple[tuple[str, ...], ...] = ()

    def check_project(
        self, modules: list[SourceModule], context: ProjectContext
    ) -> Iterator[Finding]:
        taint = project_taint(modules, context)
        # R1001 and R1002 share one resolution of task roots and writes.
        roots, writes = context_cached(
            context, "_taint_sinks_cache", modules, lambda: _taint_sinks(taint, modules)
        )
        reported: set[tuple[str, int]] = set()

        for key in sorted(taint.summaries):
            summary = taint.summaries[key]
            if "<locals>" in key or self._exempt(summary.module):
                continue
            why: str | None = None
            if _is_sink_module(summary.module):
                why = "is in the estimator/results stack"
            elif _is_estimation_method(key, context):
                why = "is an estimation method"
            elif key in roots:
                why = roots[key]
            if why is None:
                continue
            hit = summary.return_taint & self.labels
            if not hit:
                continue
            marker = (summary.module.path, summary.node.lineno)
            if marker in reported:
                continue
            reported.add(marker)
            yield self.finding(
                summary.module,
                summary.node.lineno,
                summary.node.col_offset,
                f"{key} {why} but returns {describe(hit)}-tainted data "
                f"({self._evidence(taint, key, hit)}); {self.advice}",
            )

        yield from self._artifact_payloads(writes, reported)

    # -- artifact payload sinks ---------------------------------------
    def _artifact_payloads(
        self, writes: list[_PayloadWrite], reported: set[tuple[str, int]]
    ) -> Iterator[Finding]:
        for module, key, call, taint in writes:
            if self._exempt(module):
                continue
            hit = taint & self.labels
            if not hit:
                continue
            marker = (module.path, call.lineno)
            if marker in reported:
                continue
            reported.add(marker)
            target = _callee_key(call.func) or "write"
            yield self.finding(
                module,
                call.lineno,
                call.col_offset,
                f"{key} writes {describe(hit)}-tainted data to an "
                f"artifact via {target}(); {self.advice}",
            )

    # -- helpers -------------------------------------------------------
    def _exempt(self, module: SourceModule) -> bool:
        return any(
            module.in_package(*parts) for parts in self.exempt_packages
        )

    def _evidence(self, taint: ProjectTaint, key: str, hit: Taint) -> str:
        sites = taint.evidence(key, hit)
        if not sites:
            return "via a called project function"
        return "; ".join(sites)


def _payload_argument(module: SourceModule, call: ast.Call) -> ast.expr | None:
    """The artifact-payload expression of a write call, if this is one."""
    dotted = _callee_key(call.func)
    if dotted is None:
        return None
    last = dotted.rsplit(".", 1)[-1]
    spec = _ARTIFACT_DATA_ARGS.get(last)
    if spec is None:
        return None
    if last in _NUMPY_ONLY and qualified_name(module, call.func) != f"numpy.{last}":
        return None
    index, keyword_name = spec
    for keyword in call.keywords:
        if keyword.arg is not None and keyword.arg == keyword_name:
            return keyword.value
    if index < len(call.args):
        arg = call.args[index]
        return None if isinstance(arg, ast.Starred) else arg
    return None


@register
class NondetTaint(_TaintRule):
    """R1001: nondeterministic values reaching results or artifacts."""

    code = "R1001"
    name = "nondeterminism-taint"
    description = (
        "unseeded RNG, clock, environment, or id()/hash() data flows "
        "into an estimator result or written artifact"
    )

    rationale = (
        'A result is only reproducible if it is a function of the data\n'
        'and the experiment seed.  This rule taints every nondeterminism\n'
        'source — OS-entropy RNG construction, clock reads, os.environ,\n'
        'id()/builtin hash() — and follows the data interprocedurally\n'
        'through the call graph.  It fires when taint reaches a sink:\n'
        'an estimator-stack or results-db return value, an estimation\n'
        "method, a pool-submitted task's result, or the payload of an\n"
        'artifact write.  Seeded construction (default_rng(seed),\n'
        'SeedSequence(entropy=...)) is the sanctioned sanitizer and is\n'
        'never a source.  repro/obs is exempt: telemetry records clocks\n'
        'and environment fingerprints by design, and its separation from\n'
        'results is enforced dynamically in CI.'
    )
    example = (
        'def hash64(values):\n'
        '    return np.fromiter((hash(v) for v in values), np.uint64)\n'
        '    # R1001: builtin hash() is salted by PYTHONHASHSEED, so the\n'
        '    # sketch contents differ across worker processes\n'
        '\n'
        'def fresh_rng():\n'
        '    return np.random.default_rng()      # R1001 at its callers:\n'
        '                                        # OS-entropy randomness\n'
    )
    remediation = (
        "Derive every random stream from the experiment's SeedSequence,\n"
        'replace builtin hash() with a keyed digest (see\n'
        'repro.sketches.hashing), and keep clock/env values in telemetry\n'
        '(repro/obs), never in result payloads.'
    )
    labels = VALUE_LABELS
    advice = (
        "results must be a function of the data and the experiment seed "
        "alone — derive randomness from the run's SeedSequence and keep "
        "clock/env/identity values out of result payloads"
    )
    exempt_packages = (("repro", "obs"),)


@register
class OrderSensitivity(_TaintRule):
    """R1002: set/dict iteration order reaching a result or artifact."""

    code = "R1002"
    name = "order-sensitivity"
    description = (
        "set iteration or filesystem-enumeration order flows into a "
        "result or artifact (float reduction order changes the value)"
    )

    rationale = (
        'Iterating a set (or an OS directory listing) yields a\n'
        'deterministic *collection* in an arbitrary *order*.  The moment\n'
        'that order meets a non-commutative reduction — float summation,\n'
        'first-wins dict construction, truncation — it becomes a value\n'
        'difference between two runs of the same seed.  The taint engine\n'
        'tracks order-taint separately from value-taint; sorted(), min/\n'
        'max/len/any/all erase it (their results are order-independent),\n'
        'while sum() deliberately does not, because float addition is not\n'
        'associative.'
    )
    example = (
        'def total_weight(weights: set[float]) -> float:\n'
        '    return sum(weights)        # R1002: float sum order varies\n'
        '\n'
        'def total_weight(weights: set[float]) -> float:\n'
        '    return sum(sorted(weights))    # fixed reduction order\n'
    )
    remediation = (
        'Sort before reducing or serializing (sorted() is the sanctioned\n'
        'sanitizer), or keep the data in an ordered container from the\n'
        'start.'
    )
    labels = ORDER_LABELS
    advice = (
        "iteration order of sets and directory listings is not stable "
        "across processes — sort before reducing or serializing"
    )
