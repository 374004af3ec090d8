"""Tests for the cross-module flow rules R302/R402 and the call graph.

The fixtures are small synthetic module sets parsed under virtual
``repro/...`` paths, so the rules see exactly the package layout they
reason about without touching the real tree.
"""

from __future__ import annotations

from repro.analysis.callgraph import build_callgraph
from repro.analysis.source import SourceModule, module_name

from tests.analysis.conftest import lint_modules

_DATA_GENERATOR = (
    "import numpy as np\n"
    "__all__ = ['make_column']\n"
    "def make_column(rows):\n"
    '    """Zipf column from the *global* RNG (exempt in repro/data)."""\n'
    "    return np.random.zipf(1.5, rows)\n"
)


def _module(text: str, path: str) -> SourceModule:
    return SourceModule.from_source(text, path=path)


class TestModuleName:
    def test_dotted_name_from_repro_component(self):
        assert module_name("src/repro/core/gee.py") == "repro.core.gee"

    def test_package_init(self):
        assert module_name("src/repro/data/__init__.py") == "repro.data"


class TestCallGraph:
    def test_bare_name_call_resolves(self):
        module = _module(
            "__all__ = ['f', 'g']\n"
            "def g():\n"
            '    """Helper."""\n'
            "    return 1\n"
            "def f():\n"
            '    """Caller."""\n'
            "    return g()\n",
            "repro/experiments/fixture_calls.py",
        )
        graph = build_callgraph([module])
        key = "repro.experiments.fixture_calls.f"
        assert "repro.experiments.fixture_calls.g" in graph.edges[key]

    def test_cross_module_attribute_call_resolves(self):
        helper = _module(
            "__all__ = ['h']\n"
            "def h():\n"
            '    """Helper."""\n'
            "    return 1\n",
            "repro/experiments/fixture_helper.py",
        )
        caller = _module(
            "from repro.experiments import fixture_helper\n"
            "__all__ = ['f']\n"
            "def f():\n"
            '    """Caller."""\n'
            "    return fixture_helper.h()\n",
            "repro/experiments/fixture_caller.py",
        )
        graph = build_callgraph([caller, helper])
        assert (
            "repro.experiments.fixture_helper.h"
            in graph.edges["repro.experiments.fixture_caller.f"]
        )

    def test_find_path_returns_chain(self):
        module = _module(
            "__all__ = ['a', 'b', 'c']\n"
            "def c():\n"
            '    """Target."""\n'
            "def b():\n"
            '    """Middle."""\n'
            "    c()\n"
            "def a():\n"
            '    """Head."""\n'
            "    b()\n",
            "repro/experiments/fixture_chain.py",
        )
        graph = build_callgraph([module])
        prefix = "repro.experiments.fixture_chain."
        path = graph.find_path(prefix + "a", {prefix + "c"})
        assert path == [prefix + "a", prefix + "b", prefix + "c"]


class TestTransitiveGlobalRng:
    def test_non_exempt_caller_of_exempt_rng_flagged(self):
        data = _module(_DATA_GENERATOR, "repro/data/fixture_gen.py")
        caller = _module(
            "from repro.data import fixture_gen\n"
            "__all__ = ['run']\n"
            "def run():\n"
            '    """Experiment entry point."""\n'
            "    return fixture_gen.make_column(100)\n",
            "repro/experiments/fixture_run.py",
        )
        findings = lint_modules([caller, data], ["R302"])
        assert [finding.code for finding in findings] == ["R302"]
        assert "make_column" in findings[0].message
        assert "Generator" in findings[0].message

    def test_only_chain_head_reported(self):
        data = _module(_DATA_GENERATOR, "repro/data/fixture_gen.py")
        middle = _module(
            "from repro.data import fixture_gen\n"
            "__all__ = ['build']\n"
            "def build():\n"
            '    """Intermediate."""\n'
            "    return fixture_gen.make_column(10)\n",
            "repro/experiments/fixture_mid.py",
        )
        head = _module(
            "from repro.experiments import fixture_mid\n"
            "__all__ = ['main']\n"
            "def main():\n"
            '    """Outermost entry."""\n'
            "    return fixture_mid.build()\n",
            "repro/experiments/fixture_head.py",
        )
        findings = lint_modules([head, middle, data], ["R302"])
        assert len(findings) == 1
        assert findings[0].path == "repro/experiments/fixture_head.py"

    def test_exempt_internal_calls_not_flagged(self):
        data = _module(_DATA_GENERATOR, "repro/data/fixture_gen.py")
        sibling = _module(
            "from repro.data import fixture_gen\n"
            "__all__ = ['make_two']\n"
            "def make_two():\n"
            '    """Still inside repro/data — still exempt."""\n'
            "    return fixture_gen.make_column(2)\n",
            "repro/data/fixture_sibling.py",
        )
        assert lint_modules([sibling, data], ["R302"]) == []


class TestTransitiveImpurity:
    ESTIMATOR = (
        "from repro.core.base import DistinctValueEstimator\n"
        "from repro.estimators import fixture_util\n"
        "__all__ = ['Leaky']\n"
        "class Leaky(DistinctValueEstimator):\n"
        '    """Estimator whose raw estimate calls an impure helper."""\n'
        "    name = 'leaky'\n"
        "    def _estimate_raw(self, profile, population_size):\n"
        "        return fixture_util.jitter(profile.distinct)\n"
    )

    IMPURE_HELPER = (
        "import numpy as np\n"
        "__all__ = ['jitter']\n"
        "def jitter(x):\n"
        '    """Adds global-RNG noise — impure."""\n'
        "    return x + np.random.random()\n"
    )

    PURE_HELPER = (
        "__all__ = ['jitter']\n"
        "def jitter(x):\n"
        '    """Pure passthrough."""\n'
        "    return x\n"
    )

    def test_estimation_method_reaching_impure_helper_flagged(self):
        estimator = _module(self.ESTIMATOR, "repro/estimators/fixture_leaky.py")
        helper = _module(self.IMPURE_HELPER, "repro/estimators/fixture_util.py")
        findings = lint_modules([estimator, helper], ["R402"])
        assert [finding.code for finding in findings] == ["R402"]
        assert "global RNG" in findings[0].message

    def test_pure_chain_is_clean(self):
        estimator = _module(self.ESTIMATOR, "repro/estimators/fixture_leaky.py")
        helper = _module(self.PURE_HELPER, "repro/estimators/fixture_util.py")
        assert lint_modules([estimator, helper], ["R402"]) == []

    def test_non_estimation_method_not_flagged(self):
        caller = _module(
            "from repro.estimators import fixture_util\n"
            "__all__ = ['helper']\n"
            "def helper():\n"
            '    """Free function — R402 only covers estimation methods."""\n'
            "    return fixture_util.jitter(1)\n",
            "repro/estimators/fixture_free.py",
        )
        helper = _module(self.IMPURE_HELPER, "repro/estimators/fixture_util.py")
        assert lint_modules([caller, helper], ["R402"]) == []


class TestRealTreeIsClean:
    def test_src_has_no_transitive_findings(self):
        from pathlib import Path

        from repro.analysis import lint_paths

        src = Path(__file__).resolve().parents[2] / "src"
        report = lint_paths([str(src)], select=["R302", "R402"])
        assert report.findings == []
