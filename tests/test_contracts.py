"""Tests for `repro.contracts` and its agreement with the static prover.

The contract system has two consumers — the dataflow prover (static)
and the optional runtime asserts — and the round-trip tests here pin
their agreement: a clause the prover marks ``proved`` must never raise
at runtime, and a ``violated`` clause must raise whenever checks are on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.dataflow import module_intervals
from repro.analysis.source import SourceModule
from repro.contracts import (
    ContractViolationError,
    contract_clauses,
    ensures,
    requires,
    runtime_checks_enabled,
    set_runtime_checks,
)
from repro.errors import InvalidParameterError


@pytest.fixture
def checks_on():
    set_runtime_checks(True)
    yield
    set_runtime_checks(None)


@pytest.fixture
def checks_off():
    set_runtime_checks(False)
    yield
    set_runtime_checks(None)


class TestRuntimeChecks:
    def test_requires_raises_on_violation(self, checks_on):
        @requires("n >= 1")
        def f(n):
            return n

        assert f(3) == 3
        with pytest.raises(ContractViolationError, match="n >= 1"):
            f(0)

    def test_ensures_checks_result(self, checks_on):
        @ensures("result >= 0.0")
        def f(x):
            return x

        assert f(1.0) == 1.0
        with pytest.raises(ContractViolationError, match="result >= 0.0"):
            f(-1.0)

    def test_tuple_result_indexing(self, checks_on):
        @ensures("result[1] >= 1.0")
        def f(n):
            return ("payload", float(n))

        assert f(2)[1] == 2.0
        with pytest.raises(ContractViolationError):
            f(0)

    def test_numpy_clause(self, checks_on):
        @ensures("(result >= 0).all()")
        def f(values):
            return np.asarray(values)

        f([1, 2, 3])
        with pytest.raises(ContractViolationError):
            f([1, -2, 3])

    def test_stacked_decorators_share_one_wrapper(self, checks_on):
        @requires("a >= 1")
        @requires("b >= 1")
        @ensures("result >= 2")
        def f(a, b):
            return a + b

        assert f(1, 1) == 2
        with pytest.raises(ContractViolationError):
            f(0, 5)
        with pytest.raises(ContractViolationError):
            f(5, 0)
        # One wrapper only: __wrapped__ is the original function.
        assert f.__wrapped__.__name__ == "f"

    def test_disabled_means_zero_enforcement(self, checks_off):
        @requires("n >= 1")
        @ensures("result >= 1")
        def f(n):
            return n

        assert not runtime_checks_enabled()
        assert f(-5) == -5  # no checks, no raise

    def test_violation_is_assertion_error(self, checks_on):
        @requires("n >= 1")
        def f(n):
            return n

        with pytest.raises(AssertionError):
            f(0)

    def test_unevaluable_clause_raises_violation(self, checks_on):
        @ensures("result.missing_attribute > 0")
        def f():
            return 1.0

        with pytest.raises(ContractViolationError, match="could not be"):
            f()

    def test_bad_clause_rejected_at_decoration_time(self):
        with pytest.raises(InvalidParameterError):
            requires("n >=")(lambda n: n)
        with pytest.raises(InvalidParameterError):
            requires()

    def test_environment_is_read_on_reset_not_per_call(self, monkeypatch):
        @requires("n >= 1")
        def f(n):
            return n

        try:
            monkeypatch.delenv("REPRO_CONTRACTS", raising=False)
            set_runtime_checks(None)
            assert not runtime_checks_enabled()
            # A later change to the environment takes effect only when
            # set_runtime_checks(None) re-reads it.
            monkeypatch.setenv("REPRO_CONTRACTS", "1")
            assert f(0) == 0
            set_runtime_checks(None)
            assert runtime_checks_enabled()
            with pytest.raises(ContractViolationError):
                f(0)
            monkeypatch.delenv("REPRO_CONTRACTS")
            set_runtime_checks(None)
            assert not runtime_checks_enabled()
            assert f(0) == 0
        finally:
            monkeypatch.undo()
            set_runtime_checks(None)


class TestMetadata:
    def test_contract_clauses_round_trip(self):
        @requires("r >= 1", "r <= n")
        @ensures("result >= 0")
        def f(r, n):
            return 0

        clauses = contract_clauses(f)
        assert clauses["requires"] == ["r >= 1", "r <= n"]
        assert clauses["ensures"] == ["result >= 0"]

    def test_contract_clauses_on_plain_function(self):
        def f():
            return None

        assert contract_clauses(f) == {"requires": [], "ensures": []}


class TestStaticRuntimeAgreement:
    """The prover's verdict must agree with observed runtime behavior."""

    SOURCE = (
        "from repro.contracts import ensures, requires\n"
        "@ensures('result >= 1.0')\n"
        "def clamped(x):\n"
        "    return max(x, 1.0)\n"
        "@ensures('result >= 1.0')\n"
        "def identity(x):\n"
        "    return x\n"
    )

    def _verdicts(self):
        module = SourceModule.from_source(
            self.SOURCE, path="repro/estimators/fixture_agreement.py"
        )
        return {
            verdict.qualname: verdict.verdict
            for verdict in module_intervals(module).contract_verdicts()
        }

    def test_proved_clause_never_raises(self, checks_on):
        assert self._verdicts()["clamped"] == "proved"

        @ensures("result >= 1.0")
        def clamped(x):
            return max(x, 1.0)

        for x in (-10.0, 0.0, 0.5, 7.0):
            clamped(x)  # must not raise, matching the static proof

    def test_runtime_clause_enforced_dynamically(self, checks_on):
        assert self._verdicts()["identity"] == "runtime"

        @ensures("result >= 1.0")
        def identity(x):
            return x

        assert identity(2.0) == 2.0
        with pytest.raises(ContractViolationError):
            identity(0.5)


class TestEstimatorCoverage:
    """Every registered estimator's entry point carries a contract."""

    def test_all_estimators_contracted(self):
        from repro.core.registry import ESTIMATOR_FACTORIES

        uncovered = []
        for name, factory in ESTIMATOR_FACTORIES.items():
            estimator = factory()
            # The inherited `estimate` wrapper is always contracted; the
            # gate demands a contract on the estimator's *own* raw entry
            # point (or its interval hook) so each subclass declares its
            # paper preconditions explicitly.
            covered = any(
                any(contract_clauses(method).values())
                for method in (estimator._estimate_raw, estimator._interval)
            )
            if not covered:
                uncovered.append(name)
        assert not uncovered, f"estimators without contracts: {uncovered}"

    def test_base_estimate_carries_sanity_bounds(self):
        from repro.core.base import DistinctValueEstimator

        clauses = contract_clauses(DistinctValueEstimator.estimate)
        assert "result.value >= profile.distinct" in clauses["ensures"]
        assert "result.value <= population_size" in clauses["ensures"]
