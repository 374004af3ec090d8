"""Per-rule tests for the float-domain hazard rules R1301–R1304."""

from __future__ import annotations

from repro.analysis.dataflow.contract_lookup import contract_lookup
from repro.analysis.project import build_context
from repro.analysis.rules.float_domain import nan_returns
from repro.analysis.source import SourceModule
from tests.analysis.conftest import lint_fixture, lint_text


class TestUnprovenNonzeroDivision:
    def test_flags_only_the_unproven_contracted_division(self):
        findings = lint_fixture("fixture_r1301.py", ["R1301"])
        assert len(findings) == 1
        assert findings[0].code == "R1301"
        assert "'r'" in findings[0].message
        assert "bad_unproven" in findings[0].message

    def test_requires_clause_discharges_the_divisor(self):
        text = (
            "from repro.contracts import ensures, requires\n"
            "@requires('n >= 1')\n"
            "@ensures('result >= 0.0')\n"
            "def f(x, n):\n"
            "    return abs(x) / n\n"
        )
        assert lint_text(text, ["R1301"]) == []

    def test_runs_tree_wide_unlike_r101(self):
        # A contracted function outside the estimator stack is audited.
        text = (
            "from repro.contracts import ensures\n"
            "@ensures('result >= 0.0')\n"
            "def f(x, n):\n"
            "    return abs(x) / n\n"
        )
        findings = lint_text(text, ["R1301"], virtual_path="repro/db/fixture.py")
        assert len(findings) == 1

    def test_uncontracted_functions_are_not_audited(self):
        text = "def f(x, n):\n    return x / n\n"
        assert lint_text(text, ["R1301"]) == []


class TestFloatDomainViolation:
    def test_flags_exactly_the_bad_calls(self):
        findings = lint_fixture("fixture_r1302.py", ["R1302"])
        assert [f.line for f in findings] == [9, 13, 17]
        assert "np.log" in findings[0].message
        assert "np.sqrt" in findings[1].message
        assert "fractional power" in findings[2].message

    def test_estimator_stack_scope_only(self):
        findings = lint_fixture(
            "fixture_r1302.py", ["R1302"], virtual_path="repro/db/fixture.py"
        )
        assert findings == []

    def test_maximum_clamp_proves_the_domain(self):
        text = (
            "import numpy as np\n"
            "def f(p):\n"
            "    return np.log(np.maximum(p, 1e-300))\n"
        )
        assert lint_text(text, ["R1302"]) == []


class TestExpOverflowHazard:
    def test_flags_exactly_the_bad_calls(self):
        findings = lint_fixture("fixture_r1303.py", ["R1303"])
        assert [f.line for f in findings] == [9, 13]
        assert "math.exp" in findings[0].message
        assert "np.expm1" in findings[1].message

    def test_min_clamp_and_guard_both_prove_the_bound(self):
        clamped = (
            "import math\n"
            "def f(x):\n"
            "    return math.exp(min(0.0, x))\n"
        )
        assert lint_text(clamped, ["R1303"]) == []
        guarded = (
            "import math\n"
            "def f(x):\n"
            "    if x > 600.0:\n"
            "        return 0.0\n"
            "    return math.exp(x)\n"
        )
        assert lint_text(guarded, ["R1303"]) == []

    def test_exp2_has_its_own_threshold(self):
        # 2**x overflows at 1024, not 709.78: x <= 1000 is fine for
        # exp2 but not for exp.
        text = (
            "import numpy as np\n"
            "def f(x):\n"
            "    return np.exp2(np.minimum(1000.0, x))\n"
        )
        assert lint_text(text, ["R1303"]) == []

    def test_estimator_stack_scope_only(self):
        findings = lint_fixture(
            "fixture_r1303.py", ["R1303"], virtual_path="repro/db/fixture.py"
        )
        assert findings == []


class TestNanToSink:
    def test_flags_the_nan_result_and_the_nan_payload(self):
        findings = lint_fixture("fixture_r1304.py", ["R1304"])
        assert len(findings) == 2
        messages = "\n".join(f.message for f in findings)
        assert "BadNanEstimator._estimate_raw" in messages
        assert 'float("nan") literal' in messages
        assert "bad_payload" in messages
        assert "atomic_write" in messages
        # The inf-returning estimator and the sanitized/checked writers
        # are all clean.
        assert "GoodInfEstimator" not in messages
        assert "good_sanitized_payload" not in messages
        assert "good_checked_payload" not in messages

    def test_nan_flag_propagates_through_a_project_call(self):
        text = (
            "from repro.core.base import DistinctValueEstimator\n"
            "def degenerate():\n"
            "    return float('nan')\n"
            "class Relay(DistinctValueEstimator):\n"
            "    name = 'Relay'\n"
            "    def _estimate_raw(self, profile, population_size):\n"
            "        return degenerate()\n"
        )
        findings = lint_text(text, ["R1304"])
        assert len(findings) == 1
        assert "Relay._estimate_raw" in findings[0].message
        assert "degenerate" in findings[0].message

    def test_payload_from_a_nan_returning_call_is_flagged(self):
        text = (
            "from repro.db.artifacts import atomic_write\n"
            "import numpy as np\n"
            "def degenerate():\n"
            "    return float('nan')\n"
            "def relay():\n"
            "    return degenerate()\n"
            "def bad_call(path):\n"
            "    atomic_write(path, degenerate())\n"
            "def bad_chain(path):\n"
            "    atomic_write(path, [relay(), 1.0])\n"
            "def good_sanitized(path):\n"
            "    atomic_write(path, np.nan_to_num(degenerate()))\n"
        )
        findings = lint_text(text, ["R1304"], "repro/core/demo.py")
        assert [f.message.split(" ", 1)[0] for f in findings] == [
            "bad_call",
            "bad_chain",
        ]
        assert "calls repro.core.demo.degenerate which may return NaN" in (
            findings[0].message
        )
        assert (
            "calls repro.core.demo.relay which may return NaN (line 10); "
            "calls repro.core.demo.degenerate which may return NaN (line 6)"
        ) in findings[1].message


def _nan_returns(text: str) -> dict[str, str]:
    modules = [SourceModule.from_source(text, path="repro/core/demo.py")]
    return nan_returns(modules, contract_lookup(modules, build_context(modules)))


class TestNanReturns:
    def test_nan_flag_from_literal_and_through_callees(self):
        # Callers come first, so the chain needs more than one pass.
        reasons = _nan_returns(
            "def relay_twice():\n"
            "    return relay() + 1.0\n"
            "def relay():\n"
            "    return degenerate()\n"
            "def sanitized():\n"
            "    import numpy as np\n"
            "    return np.nan_to_num(degenerate())\n"
            "def degenerate():\n"
            "    return float('nan')\n"
        )
        assert sorted(reasons) == [
            "repro.core.demo.degenerate",
            "repro.core.demo.relay",
            "repro.core.demo.relay_twice",
        ]

    def test_reason_names_the_call_chain(self):
        reasons = _nan_returns(
            "def degenerate():\n"
            "    return float('nan')\n"
            "def relay():\n"
            "    return degenerate()\n"
        )
        assert reasons["repro.core.demo.relay"] == (
            "calls repro.core.demo.degenerate which may return NaN (line 4); "
            'float("nan") literal (line 2, repro/core/demo.py)'
        )

    def test_mutual_recursion_terminates(self):
        reasons = _nan_returns(
            "def ping(n):\n"
            "    return pong(n - 1) if n else float('nan')\n"
            "def pong(n):\n"
            "    return ping(n - 1)\n"
        )
        assert reasons["repro.core.demo.pong"] == (
            "calls repro.core.demo.ping which may return NaN (line 4); "
            'float("nan") literal (line 2, repro/core/demo.py)'
        )
