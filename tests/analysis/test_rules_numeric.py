"""Per-rule tests for the numeric-safety rules R101, R102, and R201."""

from __future__ import annotations

from tests.analysis.conftest import lint_fixture, lint_text


class TestUnguardedDivision:
    def test_flags_exactly_the_bad_divisions(self):
        findings = lint_fixture("fixture_r101.py", ["R101"])
        # 35: `if r > 100: return 0.0` names r but leaves r == 0 possible.
        # 46, 49, 51: a class body, a lambda parameter and a comprehension
        # target rebind the module's k = 5, whose own read (40) is proved.
        # 56, 62: dead code is proved.  69, 83, 90, 97: `a or -3.0`,
        # np.exp2, math.log2 and math.log10 reach the zero of the divisor.
        # 109, 119: a finally body and the code after a with block run
        # although no path falls through to them.  131, 142, 151: an
        # except handler, a finally body and the code after a with block
        # are entered midway through the body.  166, 180, 194: another
        # method rebinds self.bits through a nested, loop or with target.
        assert [f.line for f in findings] == [
            5, 9, 35, 46, 49, 51, 69, 83, 90, 97, 109, 119, 131, 142, 151,
            166, 180, 194,
        ]
        assert all(f.code == "R101" for f in findings)
        assert "'f2'" in findings[0].message

    def test_estimator_stack_scope_only(self):
        # Same source under repro/db: the contract does not apply there.
        findings = lint_fixture(
            "fixture_r101.py", ["R101"], virtual_path="repro/db/fixture.py"
        )
        assert findings == []

    def test_every_stack_package_is_covered(self):
        text = "def f(x):\n    return 1.0 / x\n"
        for package in ("core", "estimators", "frequency", "sketches", "sampling"):
            findings = lint_text(
                text, ["R101"], virtual_path=f"repro/{package}/fixture.py"
            )
            assert len(findings) == 1, package


class TestUnsafeLogSqrt:
    def test_flags_exactly_the_bad_calls(self):
        findings = lint_fixture("fixture_r102.py", ["R102"])
        assert [f.line for f in findings] == [7, 11, 32, 37]
        assert "math.log" in findings[0].message
        assert "math.sqrt" in findings[1].message
        # `if x > 10.0: return 1.0` leaves x <= 0 possible.
        assert "math.log argument 'x'" in findings[2].message
        # `a or b` is a itself unless a == 0, so it may be negative.
        assert "math.sqrt" in findings[3].message

    def test_sqrt_of_zero_is_allowed_log_of_zero_is_not(self):
        sqrt_zero = "import math\n\ndef f(x):\n    return math.sqrt(max(x, 0))\n"
        assert lint_text(sqrt_zero, ["R102"]) == []
        log_zero = "import math\n\ndef f(x):\n    return math.log(abs(x))\n"
        assert len(lint_text(log_zero, ["R102"])) == 1

    def test_log_imported_from_math_is_checked(self):
        text = "from math import log\n\ndef scale(x):\n    return log(x)\n"
        findings = lint_text(text, ["R102"])
        assert [f.line for f in findings] == [4]
        assert "math.log argument 'x'" in findings[0].message


class TestFloatEquality:
    def test_flags_exactly_the_bad_comparisons(self):
        findings = lint_fixture("fixture_r201.py", ["R201"])
        assert [f.line for f in findings] == [7, 11]

    def test_runs_tree_wide(self):
        # R201 applies outside the estimator stack too.
        findings = lint_fixture(
            "fixture_r201.py", ["R201"], virtual_path="repro/db/fixture.py"
        )
        assert len(findings) == 2

    def test_negative_float_literal_counts(self):
        findings = lint_text("def f(x):\n    return x == -1.0\n", ["R201"])
        assert len(findings) == 1
