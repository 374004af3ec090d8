"""Self-tests of the benchmark: ``python3 -m pytest bench/``."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import tracer as tracing
import verdicts
import worker

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def _last_line(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_declared_names_are_well_formed():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert set(worker.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_a_short_run_emits_exactly_the_declared_metrics(trace, kind):
    result = _last_line("--workload", "bootstrap", "--seconds", "1", "--trace", trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        # The change wins every pair by far more than the parent's spread.
        ([10, 10.2, 9.9, 10.1, 10], [8, 8.1, 7.9, 8.2, 8], "lower", verdicts.IMPROVED),
        ([10, 10.2, 9.9, 10.1, 10], [12, 12.1, 11.9, 12.2, 12], "higher", verdicts.IMPROVED),
        # Same distribution: no verdict either way.
        ([10, 10.2, 9.9, 10.1, 10], [10.1, 9.9, 10, 10.2, 10], "lower", verdicts.UNCHANGED),
        # Worse by 20% against a 10% bound, with a tight spread.
        ([10, 10.2, 9.9, 10.1, 10], [12, 12.1, 11.9, 12.2, 12], "lower", verdicts.REGRESSED),
        # The parent's own runs spread by more than the bound.
        ([8, 12, 9, 11, 10], [9, 13, 10, 12, 11], "lower", verdicts.UNRESOLVED),
        # Wins 8 of 10 pairs: short of the 9-in-10 rule, within the bound.
        ([10, 10, 10, 10, 10, 10, 10, 10, 10, 10],
         [9.9, 9.9, 9.9, 9.9, 9.9, 9.9, 9.9, 9.9, 10.1, 10.1], "lower", verdicts.UNCHANGED),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert verdicts.verdict(parent, change, better, bound=0.1) == expected


def test_compare_reports_per_layer_deltas_and_counts_regressions():
    def results(wall: float, draw: float) -> dict:
        return {"workloads": {"synthetic": {"metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "sampling.draw_s": {"value": draw, "unit": "s"},
        }}}}

    parent = [results(1.0, 0.5), results(1.01, 0.5), results(0.99, 0.5)]
    change = [results(1.3, 0.8), results(1.31, 0.8), results(1.29, 0.8)]
    lines, regressions = verdicts.compare(parent, change, SPEC)
    assert regressions == 1
    assert any("wall_s" in line and verdicts.REGRESSED in line for line in lines)
    assert any("sampling.draw_s" in line and "+60.0%" in line for line in lines)


@pytest.fixture
def fake_layer(monkeypatch):
    """A throwaway ``repro.*`` module, so patching touches nothing real."""
    module = types.ModuleType("repro.bench_fake")

    def inner(x):
        time.sleep(0.02)
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    def findings(n):
        time.sleep(0.02)
        yield from range(n)

    class Base:
        def check(self):
            return "base"

    class Child(Base):
        pass

    module.__dict__.update(inner=inner, outer=outer, findings=findings, Base=Base, Child=Child)
    monkeypatch.setitem(sys.modules, "repro.bench_fake", module)
    return module


def test_missing_trace_targets_are_dropped_with_a_warning(fake_layer, capsys):
    tracer = tracing.Tracer()
    fed, missing = tracing.install(tracer, [
        tracing.Target("repro.no_such_module:f", "gone.module"),
        tracing.Target("repro.bench_fake:no_such_function", "gone.function"),
        tracing.Target("repro.bench_fake:Base.no_such_method", "gone.method"),
        tracing.Target("repro.bench_fake:inner", "kept"),
    ])
    assert missing == {
        "repro.no_such_module:f",
        "repro.bench_fake:no_such_function",
        "repro.bench_fake:Base.no_such_method",
    }
    assert fed == {"kept_s"}
    assert capsys.readouterr().err.count("warning") == 3
    assert fake_layer.inner(1) == 2
    assert set(tracer.metrics(fed)) == {"kept_s"}


def test_spans_charge_self_time_and_consume_generators(fake_layer):
    tracer = tracing.Tracer()
    tracing.install(tracer, [
        tracing.Target("repro.bench_fake:inner", "layer.inner"),
        tracing.Target("repro.bench_fake:outer", "layer.outer"),
        tracing.Target("repro.bench_fake:findings", "layer.rule"),
        tracing.Target("repro.bench_fake:Base.check", "layer.base"),
        tracing.Target("repro.bench_fake:Child.check", "layer.child"),
    ])
    assert fake_layer.outer(1) == 4
    assert list(fake_layer.findings(3)) == [0, 1, 2]
    assert fake_layer.Child().check() == "base"
    # Each key holds only its own time: outer's excludes inner's, the
    # generator ran inside its span, and the child's wrapper wraps the
    # original method once, not the parent's wrapper.
    spent = tracer.self_seconds
    assert set(spent) == {"layer.inner", "layer.outer", "layer.rule", "layer.child"}
    assert spent["layer.inner"] >= 0.02 > spent["layer.outer"]
    assert spent["layer.rule"] >= 0.02


def test_correctness_checks_flag_broken_exhibits():
    from repro.experiments.report import SeriesTable

    table = SeriesTable(title="t", x_name="rate", x_values=["0.2%", "0.4%"])
    table.add_series("ACTUAL", [100.0, 100.0])
    table.add_series("LOWER", [50.0, 101.0])
    table.add_series("UPPER", [200.0, 150.0])
    assert worker.check_table("table1", table) == ["ACTUAL 100.0 outside [101.0, 150.0] at 0.4%"]

    errors = SeriesTable(title="e", x_name="rate", x_values=["0.2%"])
    errors.add_series("GEE", [0.5])
    errors.add_series("AE", [float("nan")])
    assert worker.check_table("fig1", errors) == ["non-finite value", "ratio error below 1"]
