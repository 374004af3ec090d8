"""Tier-1 gate: machine-checked estimator guarantees.

Every registered estimator inherits the ``estimate`` envelope —
``sample_distinct <= result.value <= population_size`` — from
``DistinctValueEstimator``, declared as ``@ensures`` clauses.  This
suite runs the contract prover over ``src/`` and fails when any
estimator-facing ensures clause stops proving statically, or when the
total proved-clause count regresses below the committed baseline
(``BENCH_analysis.baseline.json``).

The proving pass (the session's shared ``src_lint`` run) is also the
analysis benchmark: its wall time and verdict counts are written to
``BENCH_analysis.json`` (uploaded as a CI artifact next to
``BENCH_perf.json``) so prover-coverage and lint-speed trends stay
visible across commits.
"""

from __future__ import annotations

import inspect
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.core.base import DistinctValueEstimator
from repro.core.registry import ESTIMATOR_FACTORIES

_ROOT = Path(__file__).resolve().parents[2]
_SRC = _ROOT / "src"
_BASELINE = _ROOT / "BENCH_analysis.baseline.json"
_BENCH_OUT = _ROOT / "BENCH_analysis.json"

# The one ensures clause the prover is known not to discharge: the
# tuple-element bound in ``_validated`` needs relational reasoning
# between ``result[1]`` and ``result[0]`` that the interval domain does
# not carry.  Anything else falling back to runtime checking is a
# regression.
_KNOWN_RUNTIME = {("_validated", "result[1] >= 1.0")}


@pytest.fixture(scope="module")
def prove_report(src_lint):
    report = src_lint.report
    verdicts = Counter(v.verdict for _, v in report.contract_verdicts)
    _BENCH_OUT.write_text(
        json.dumps(
            {
                "lint_seconds": round(src_lint.seconds, 3),
                "files_scanned": report.files_scanned,
                "findings": len(report.findings),
                "clauses": len(report.contract_verdicts),
                "assumed": verdicts.get("assumed", 0),
                "proved": verdicts.get("proved", 0),
                "runtime": verdicts.get("runtime", 0),
                "violated": verdicts.get("violated", 0),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    return report


def _ensures(report):
    return [
        (path, verdict)
        for path, verdict in report.contract_verdicts
        if verdict.kind == "ensures"
    ]


def test_no_clause_is_statically_violated(prove_report):
    violated = [
        (path, v.qualname, v.clause)
        for path, v in prove_report.contract_verdicts
        if v.verdict == "violated"
    ]
    assert violated == []


def test_base_estimate_envelope_is_proved(prove_report):
    envelope = {
        v.clause: v.verdict
        for _, v in _ensures(prove_report)
        if v.qualname == "DistinctValueEstimator.estimate"
    }
    assert envelope, "DistinctValueEstimator.estimate lost its @ensures"
    assert set(envelope.values()) == {"proved"}, envelope


def test_estimator_tree_ensures_all_prove(prove_report):
    unproved = [
        (path, v.qualname, v.clause, v.verdict)
        for path, v in _ensures(prove_report)
        if v.verdict != "proved"
        and (v.qualname, v.clause) not in _KNOWN_RUNTIME
    ]
    assert unproved == [], f"ensures clauses no longer prove: {unproved}"


def test_every_registered_estimator_is_inside_the_proved_surface(prove_report):
    scanned = {path for path, _ in prove_report.contract_verdicts}
    assert scanned, "prover saw no contracts at all"
    for name, factory in sorted(ESTIMATOR_FACTORIES.items()):
        estimator = factory()
        assert isinstance(estimator, DistinctValueEstimator), name
        # The class body the estimator runs must live inside the tree
        # the prover just scanned, so the inherited envelope applies.
        source = Path(inspect.getfile(type(estimator))).resolve()
        assert source.is_relative_to(_SRC), (name, source)


def test_proved_count_does_not_regress(prove_report):
    baseline = json.loads(_BASELINE.read_text(encoding="utf-8"))
    verdicts = Counter(v.verdict for _, v in prove_report.contract_verdicts)
    assert verdicts.get("proved", 0) >= baseline["proved"], (
        f"proved clauses fell from {baseline['proved']} to "
        f"{verdicts.get('proved', 0)}; if clauses were deliberately "
        "removed, refresh BENCH_analysis.baseline.json in the same commit"
    )
    assert verdicts.get("runtime", 0) <= baseline["runtime"]
    assert verdicts.get("violated", 0) == 0
