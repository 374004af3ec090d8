"""Per-rule tests for R301 (global-random-state)."""

from __future__ import annotations

from tests.analysis.conftest import lint_fixture, lint_text


class TestGlobalRandomState:
    def test_flags_the_four_global_state_uses(self):
        findings = lint_fixture("fixture_r301.py", ["R301"])
        assert [f.line for f in findings] == [6, 10, 14, 18]
        assert all(f.code == "R301" for f in findings)

    def test_data_package_is_exempt(self):
        findings = lint_fixture(
            "fixture_r301.py", ["R301"], virtual_path="repro/data/fixture.py"
        )
        assert findings == []

    def test_import_alias_is_tracked(self):
        text = (
            "import random as rnd\n"
            "\n"
            "def f():\n"
            "    return rnd.random()\n"
        )
        findings = lint_text(text, ["R301"])
        assert len(findings) == 1
        assert findings[0].line == 4

    def test_allowed_numpy_constructors(self):
        text = (
            "import numpy as np\n"
            "from numpy.random import Generator, PCG64\n"
            "\n"
            "def f(seed):\n"
            "    return Generator(PCG64(seed))\n"
        )
        assert lint_text(text, ["R301"]) == []

    def test_from_numpy_random_global_function(self):
        text = "from numpy.random import rand\n"
        findings = lint_text(text, ["R301"])
        assert len(findings) == 1
        assert "rand" in findings[0].message

    def test_numpy_random_module_alias_is_tracked(self):
        text = (
            "import numpy.random as npr\n"
            "\n"
            "def draw(n):\n"
            "    return npr.rand(n)\n"
        )
        findings = lint_text(text, ["R301"])
        assert [f.line for f in findings] == [4]
        assert "np.random.rand()" in findings[0].message

    def test_random_imported_from_numpy_is_tracked(self):
        text = (
            "from numpy import random as nr\n"
            "\n"
            "def draw(n):\n"
            "    return nr.rand(n)\n"
        )
        findings = lint_text(text, ["R301"])
        assert [f.line for f in findings] == [4]
        assert "np.random.rand()" in findings[0].message
