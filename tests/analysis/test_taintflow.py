"""Tests for the interprocedural taint engine (`taintflow`).

Each test builds small virtual modules (never imported) and checks the
function summaries: which nondeterminism labels reach the return value
and which parameters flow through.  The engine's promises: sources are
recognized through aliases, sanitizers erase exactly their label,
summaries compose across resolved project calls, and unresolved calls
propagate their inputs conservatively.
"""

from __future__ import annotations

from repro.analysis.dataflow.taint import (
    CLOCK,
    ENV,
    IDENTITY,
    RNG,
    SET_ORDER,
)
from repro.analysis.dataflow.taintflow import ProjectTaint
from repro.analysis.source import SourceModule


def _module(text: str, path: str = "repro/estimators/demo.py") -> SourceModule:
    return SourceModule.from_source(text, path=path)


def _taint_of(text: str, func: str) -> frozenset[str]:
    engine = ProjectTaint([_module(text)])
    return engine.taint_of(f"repro.estimators.demo.{func}")


class TestSources:
    def test_clock_read(self):
        assert _taint_of(
            "import time\n"
            "def f():\n"
            "    return time.time()\n",
            "f",
        ) == {CLOCK}

    def test_datetime_now(self):
        assert _taint_of(
            "from datetime import datetime\n"
            "def f():\n"
            "    return datetime.now().isoformat()\n",
            "f",
        ) == {CLOCK}

    def test_environment_reads(self):
        assert _taint_of(
            "import os\n"
            "def f():\n"
            "    return os.environ.get('HOME', '')\n",
            "f",
        ) == {ENV}
        assert _taint_of(
            "import os\n"
            "def f():\n"
            "    return os.getenv('SEED', '0')\n",
            "f",
        ) == {ENV}

    def test_unseeded_rng_is_source_seeded_is_not(self):
        text = (
            "import numpy as np\n"
            "def unseeded():\n"
            "    return np.random.default_rng().normal()\n"
            "def seeded(seed):\n"
            "    return np.random.default_rng(seed).normal()\n"
        )
        assert _taint_of(text, "unseeded") == {RNG}
        assert _taint_of(text, "seeded") == set()

    def test_identity_sources(self):
        assert _taint_of(
            "def f(x):\n    return hash(x)\n", "f"
        ) == {IDENTITY}
        assert _taint_of(
            "def f(x):\n    return id(x)\n", "f"
        ) == {IDENTITY}

    def test_set_iteration_order(self):
        assert _taint_of(
            "def f(values):\n"
            "    total = 0.0\n"
            "    for v in {1.0, 2.0, 3.0}:\n"
            "        total += v\n"
            "    return total\n",
            "f",
        ) == {SET_ORDER}


class TestSanitizers:
    def test_sorted_erases_order(self):
        assert _taint_of(
            "def f():\n    return sorted({3, 1, 2})\n", "f"
        ) == set()

    def test_len_min_max_erase_order(self):
        text = (
            "def count():\n    return len({1, 2})\n"
            "def low():\n    return min({1, 2})\n"
        )
        assert _taint_of(text, "count") == set()
        assert _taint_of(text, "low") == set()

    def test_sum_keeps_order_taint(self):
        # Float summation order is exactly R1002's concern.
        assert _taint_of(
            "def f():\n    return sum({0.1, 0.2, 0.3})\n", "f"
        ) == {SET_ORDER}

    def test_membership_test_erases_order(self):
        assert _taint_of(
            "def f(x):\n    return x in {1, 2, 3}\n", "f"
        ) == set()

    def test_sanitizer_keeps_value_labels(self):
        # sorted() fixes the order but cannot scrub a clock value.
        assert _taint_of(
            "import time\n"
            "def f():\n"
            "    return sorted({time.time(), 1.0})\n",
            "f",
        ) == {CLOCK}


class TestInterprocedural:
    def test_taint_flows_through_resolved_call(self):
        text = (
            "import time\n"
            "def leaf():\n"
            "    return time.time()\n"
            "def caller():\n"
            "    return leaf() * 2\n"
        )
        assert _taint_of(text, "caller") == {CLOCK}

    def test_param_flow_maps_caller_arguments(self):
        text = (
            "def mix(values):\n"
            "    return values * 3\n"
            "def tainted(x):\n"
            "    return mix(hash(x))\n"
            "def clean():\n"
            "    return mix(41)\n"
        )
        assert _taint_of(text, "mix") == set()
        assert _taint_of(text, "tainted") == {IDENTITY}
        assert _taint_of(text, "clean") == set()

    def test_cross_module_resolution(self):
        helper = _module(
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n",
            path="repro/obs/clockmod.py",
        )
        consumer = _module(
            "from repro.obs.clockmod import stamp\n"
            "def result():\n"
            "    return stamp()\n",
            path="repro/estimators/demo.py",
        )
        engine = ProjectTaint([helper, consumer])
        assert engine.taint_of("repro.estimators.demo.result") == {
            CLOCK
        }

    def test_unresolved_call_propagates_inputs(self):
        # json.dumps is external: cannot remove dependence on its input.
        assert _taint_of(
            "import json\n"
            "import time\n"
            "def f():\n"
            "    return json.dumps({'t': time.time()})\n",
            "f",
        ) == {CLOCK}

    def test_module_level_taint_reaches_readers(self):
        assert _taint_of(
            "import os\n"
            "_FLAG = os.environ.get('MODE', '')\n"
            "def f():\n"
            "    return _FLAG\n",
            "f",
        ) == {ENV}

    def test_recursive_functions_terminate(self):
        text = (
            "import time\n"
            "def a(n):\n"
            "    if n <= 0:\n"
            "        return time.time()\n"
            "    return b(n - 1)\n"
            "def b(n):\n"
            "    return a(n - 1)\n"
        )
        assert _taint_of(text, "a") == {CLOCK}
        assert _taint_of(text, "b") == {CLOCK}


class TestQueries:
    def test_evidence_names_the_source(self):
        engine = ProjectTaint(
            [
                _module(
                    "import time\n"
                    "def f():\n"
                    "    return time.time()\n"
                )
            ]
        )
        sites = engine.evidence(
            "repro.estimators.demo.f", frozenset({CLOCK})
        )
        assert sites
        assert "clock" in sites[0]
        assert "line 3" in sites[0]

    def test_evidence_names_tainted_callee(self):
        engine = ProjectTaint(
            [
                _module(
                    "import time\n"
                    "def leaf():\n"
                    "    return time.time()\n"
                    "def caller():\n"
                    "    return leaf()\n"
                )
            ]
        )
        sites = engine.evidence(
            "repro.estimators.demo.caller", frozenset({CLOCK})
        )
        assert any("leaf" in site for site in sites)

    def test_eval_argument_strips_param_flow(self):
        import ast

        module = _module(
            "def f(x):\n"
            "    g(x)\n"
            "def g(y):\n"
            "    return y\n"
        )
        engine = ProjectTaint([module])
        call = module.tree.body[0].body[0].value
        taint = engine.eval_argument(
            "repro.estimators.demo.f", call.args[0]
        )
        # From inside f the caller's argument is unknown: under-report.
        assert not taint
        assert isinstance(call, ast.Call)
