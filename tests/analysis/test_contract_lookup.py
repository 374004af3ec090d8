"""Tests for the cross-module contract lookup (`contract_lookup`).

Each test builds small virtual modules (never imported) and checks what
a call into another module proves: an imported or devirtualized callee
binds its result through its ``@ensures`` clauses alone, an uncontracted
callee leaves the result unknown however its body reads, a contracted
method brings its class's ``self.<attr>`` facts to the call site, and
every module is analyzed exactly once.
"""

from __future__ import annotations

import pytest

from repro.analysis.dataflow import ModuleIntervals, engine, module_intervals
from repro.analysis.dataflow.contract_lookup import contract_lookup
from repro.analysis.project import build_context
from repro.analysis.source import SourceModule


def _module(text: str, path: str) -> SourceModule:
    return SourceModule.from_source(text, path=path)


def _verdicts(target: SourceModule, *modules: SourceModule) -> dict[str, str]:
    """Clause -> verdict in ``target``, analyzed with the whole scan's lookup."""
    scan = [target, *modules]
    contract_lookup(scan, build_context(scan))
    return {v.clause: v.verdict for v in module_intervals(target).contract_verdicts()}


_CALLER = (
    "from repro.core.helper import clamp\n"
    "from repro.contracts import ensures\n"
    "@ensures('result >= 0.0')\n"
    "def f(x):\n"
    "    return clamp(x)\n"
)


class TestCrossModule:
    def test_contracted_imported_callee_proves_the_caller(self):
        helper = _module(
            "from repro.contracts import ensures\n"
            "@ensures('result >= 0.0')\n"
            "def clamp(x):\n"
            "    return abs(x)\n",
            "repro/core/helper.py",
        )
        caller = _module(_CALLER, "repro/core/caller.py")
        assert _verdicts(caller, helper) == {"result >= 0.0": "proved"}

    def test_uncontracted_imported_callee_stays_runtime(self):
        # The body would justify result >= 0.0, but no return interval
        # is inferred from a body: only a contract speaks for a callee.
        helper = _module(
            "def clamp(x):\n"
            "    return max(x, 0.0)\n",
            "repro/core/helper.py",
        )
        caller = _module(_CALLER, "repro/core/caller.py")
        assert _verdicts(caller, helper) == {"result >= 0.0": "runtime"}

    def test_only_the_callee_contract_binds_the_result(self):
        # The callee's body would justify result >= 5.0, but its
        # declared contract only promises >= 0.0.
        helper = _module(
            "from repro.contracts import ensures\n"
            "@ensures('result >= 0.0')\n"
            "def floor5(x):\n"
            "    return max(x, 5.0)\n",
            "repro/core/helper.py",
        )
        caller = _module(
            "from repro.core.helper import floor5\n"
            "from repro.contracts import ensures\n"
            "@ensures('result >= 5.0', 'result >= 0.0')\n"
            "def f(x):\n"
            "    return floor5(x)\n",
            "repro/core/caller.py",
        )
        assert _verdicts(caller, helper) == {
            "result >= 5.0": "runtime",
            "result >= 0.0": "proved",
        }

    def test_unique_method_name_devirtualizes_with_arity_filter(self):
        library = _module(
            "from repro.contracts import ensures\n"
            "class Widget:\n"
            "    @ensures('result >= 1.0')\n"
            "    def measure(self, x):\n"
            "        return max(x, 1.0)\n"
            "    def measure_nothing(self):\n"
            "        return -1.0\n",
            "repro/core/widgets.py",
        )
        caller = _module(
            "from repro.contracts import ensures\n"
            "@ensures('result >= 1.0')\n"
            "def f(widget, x):\n"
            "    return widget.measure(x)\n",
            "repro/core/caller.py",
        )
        assert _verdicts(caller, library) == {"result >= 1.0": "proved"}

    def test_ambiguous_method_names_stay_unresolved(self):
        library = _module(
            "from repro.contracts import ensures\n"
            "class A:\n"
            "    @ensures('result >= 1.0')\n"
            "    def measure(self, x):\n"
            "        return max(x, 1.0)\n"
            "class B:\n"
            "    @ensures('result >= 1.0')\n"
            "    def measure(self, x):\n"
            "        return max(x, 2.0)\n",
            "repro/core/widgets.py",
        )
        caller = _module(
            "from repro.contracts import ensures\n"
            "@ensures('result >= 1.0')\n"
            "def f(widget, x):\n"
            "    return widget.measure(x)\n",
            "repro/core/caller.py",
        )
        # Two same-shape candidates: the sound answer is "don't know",
        # even when both would prove the clause.
        assert _verdicts(caller, library) == {"result >= 1.0": "runtime"}


_WIDGET = (
    "from repro.contracts import ensures\n"
    "class Widget:\n"
    "    def __init__(self, bits):\n"
    "        if bits < 8:\n"
    "            raise ValueError(bits)\n"
    "        self.bits = bits\n"
    "    @ensures('result >= self.bits')\n"
    "    def width(self):\n"
    "        return float(self.bits)\n"
)

_WIDTH_CALLER = (
    "from repro.contracts import ensures\n"
    "@ensures('result >= 8.0')\n"
    "def f(w):\n"
    "    return w.width()\n"
)


@pytest.mark.parametrize(
    "callee_path, caller_path",
    [
        ("repro/core/a_widget.py", "repro/core/b_caller.py"),
        ("repro/core/b_widget.py", "repro/core/a_caller.py"),
    ],
    ids=["callee-sorts-first", "caller-sorts-first"],
)
def test_self_attr_facts_reach_the_call_site(callee_path, caller_path):
    widget = _module(_WIDGET, callee_path)
    caller = _module(_WIDTH_CALLER, caller_path)
    assert _verdicts(caller, widget) == {"result >= 8.0": "proved"}


class TestInstallAndCache:
    def test_module_intervals_serves_the_lookup_built_analysis(self):
        helper = _module(
            "from repro.contracts import ensures\n"
            "@ensures('result >= 0.0')\n"
            "def clamp(x):\n"
            "    return abs(x)\n",
            "repro/core/helper.py",
        )
        caller = _module(_CALLER, "repro/core/caller.py")
        modules = [helper, caller]
        context = build_context(modules)
        lookup = contract_lookup(modules, context)
        # module_intervals now serves the analysis the lookup built ...
        analysis = module_intervals(caller)
        assert analysis is lookup.analysis(caller)
        assert analysis.contract_verdicts()[0].verdict == "proved"
        # ... and a second call is a cache hit on the context.
        assert contract_lookup(modules, context) is lookup

    def test_a_call_cycle_between_modules_builds_each_once(self, monkeypatch):
        # Each module calls a contracted method of the other, so building
        # either asks for the other's class facts while it is unfinished.
        ping = _module(
            "from repro.contracts import ensures\n"
            "class Ping:\n"
            "    def __init__(self, lo):\n"
            "        if lo < 1:\n"
            "            raise ValueError(lo)\n"
            "        self.lo = lo\n"
            "    @ensures('result >= self.lo')\n"
            "    def ping(self):\n"
            "        return float(self.lo)\n"
            "@ensures('result >= 2.0')\n"
            "def use_pong(p):\n"
            "    width = p.pong()\n"
            "    return width\n",
            "repro/core/ping.py",
        )
        pong = _module(
            "from repro.contracts import ensures\n"
            "class Pong:\n"
            "    def __init__(self, lo):\n"
            "        if lo < 2:\n"
            "            raise ValueError(lo)\n"
            "        self.lo = lo\n"
            "    @ensures('result >= self.lo')\n"
            "    def pong(self):\n"
            "        return float(self.lo)\n"
            "@ensures('result >= 1.0')\n"
            "def use_ping(p):\n"
            "    width = p.ping()\n"
            "    return width\n",
            "repro/core/pong.py",
        )
        built: list[str] = []
        construct = ModuleIntervals.__init__

        def spy(self, module, lookup=None):
            built.append(module.path)
            construct(self, module, lookup)

        monkeypatch.setattr(engine.ModuleIntervals, "__init__", spy)
        modules = [ping, pong]
        contract_lookup(modules, build_context(modules))
        assert sorted(built) == ["repro/core/ping.py", "repro/core/pong.py"]
        # Verdicts are read once both analyses are finished, so each
        # caller sees the other module's class facts.
        verdicts = {
            v.qualname: v.verdict
            for module in modules
            for v in module_intervals(module).contract_verdicts()
            if v.kind == "ensures"
        }
        assert verdicts["use_pong"] == verdicts["use_ping"] == "proved"
