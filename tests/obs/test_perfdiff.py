"""`repro perfdiff`: report flattening, diff directionality, the CI gate.

The diff must regress in the right direction per metric family (seconds
grow = bad, ``.speedup`` shrinks = bad), and ``--gate`` must hold every
tracked speedup to its floor = baseline speedup × (1 − tolerance); a
missing measurement is a failure.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import InvalidParameterError
from repro.obs.perfdiff import (
    MetricDelta,
    diff_metrics,
    flatten_perf_report,
    flatten_run_metrics,
    gate_report,
    load_metrics,
    render_diff,
)
from repro.obs.trace import load_run

_REPORT = {
    "schema": 1,
    "exhibits": {
        "fig1": 1.25,
        "fig2": {"seconds": 2.5, "p50": 0.01, "p99": 0.05},
        "fig3": {"seconds": 0.5, "p50": None, "p99": None},
    },
    "tests": {"benchmarks/bench_x.py::test_y": 3.0},
    "total_seconds": 7.0,
    "kernels": {"reduction": {"legacy_seconds": 1.0, "fast_seconds": 0.5, "speedup": 2.0}},
    "telemetry": {"spans": {"sweep.run": {"count": 3, "seconds": 4.5}}},
}


class TestFlatten:
    def test_flattens_both_exhibit_layouts(self):
        metrics = flatten_perf_report(_REPORT)
        assert metrics["exhibits.fig1.seconds"] == 1.25
        assert metrics["exhibits.fig2.seconds"] == 2.5
        assert metrics["exhibits.fig2.p99"] == 0.05
        # Null quantiles (telemetry off) are skipped, not zeroed.
        assert "exhibits.fig3.p50" not in metrics
        assert metrics["exhibits.fig3.seconds"] == 0.5

    def test_flattens_kernels_tests_and_spans(self):
        metrics = flatten_perf_report(_REPORT)
        assert metrics["kernels.reduction.speedup"] == 2.0
        assert metrics["tests.benchmarks/bench_x.py::test_y.seconds"] == 3.0
        assert metrics["total.seconds"] == 7.0
        assert metrics["telemetry.spans.sweep.run.seconds"] == 4.5

    def test_flattens_telemetry_runs(self, tmp_path):
        records = [
            {"ev": "span", "id": 1, "name": "work", "parent": None, "t": 0.0, "dur": 0.25},
            {"ev": "span", "id": 2, "name": "work", "parent": None, "t": 0.3, "dur": 0.25},
            {"ev": "counter", "name": "rows", "value": 100},
            {"ev": "hist", "name": "work", "k": 20, "zero": 0, "buckets": [[-13, 2]]},
        ]
        path = tmp_path / "run.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        metrics = flatten_run_metrics(load_run(path))
        assert metrics["spans.work.count"] == 2
        assert metrics["spans.work.seconds"] == 0.5
        assert metrics["counters.rows"] == 100
        assert metrics["quantiles.work.p50"] == metrics["quantiles.work.p99"] > 0


class TestLoadMetrics:
    def test_loads_json_report(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps(_REPORT))
        assert load_metrics(path) == flatten_perf_report(_REPORT)

    def test_loads_jsonl_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            json.dumps({"ev": "counter", "name": "n", "value": 1})
            + "\n"
            + json.dumps({"ev": "gauge", "name": "g", "value": 2})
            + "\n"
        )
        assert load_metrics(path)["counters.n"] == 1

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            load_metrics(tmp_path / "absent.json")


class TestDiff:
    def test_seconds_regress_upward(self):
        diff = diff_metrics({"a.seconds": 1.0}, {"a.seconds": 1.5}, threshold=0.25)
        assert [delta.key for delta in diff.regressions] == ["a.seconds"]
        # Getting faster is never a regression.
        assert not diff_metrics(
            {"a.seconds": 1.5}, {"a.seconds": 1.0}, threshold=0.25
        ).regressions

    def test_speedups_regress_downward(self):
        faster = diff_metrics(
            {"k.reduction.speedup": 2.0}, {"k.reduction.speedup": 4.0}, threshold=0.25
        )
        assert not faster.regressions
        slower = diff_metrics(
            {"k.reduction.speedup": 2.0}, {"k.reduction.speedup": 1.0}, threshold=0.25
        )
        assert [delta.key for delta in slower.regressions] == ["k.reduction.speedup"]

    def test_threshold_is_exclusive(self):
        within = diff_metrics({"a.seconds": 1.0}, {"a.seconds": 1.25}, threshold=0.25)
        assert not within.regressions
        past = diff_metrics({"a.seconds": 1.0}, {"a.seconds": 1.26}, threshold=0.25)
        assert past.regressions

    def test_min_value_suppresses_micro_noise(self):
        before = {"tiny.seconds": 0.0001, "big.seconds": 1.0}
        after = {"tiny.seconds": 0.0009, "big.seconds": 2.0}
        diff = diff_metrics(before, after, threshold=0.25, min_value=0.01)
        assert [delta.key for delta in diff.deltas] == ["big.seconds"]

    def test_missing_and_added_keys_are_reported(self):
        diff = diff_metrics({"gone.seconds": 1.0}, {"new.seconds": 1.0})
        assert diff.missing == ["gone.seconds"]
        assert diff.added == ["new.seconds"]
        assert not diff.deltas

    def test_deltas_sorted_worst_first(self):
        diff = diff_metrics(
            {"a.seconds": 1.0, "b.seconds": 1.0, "c.seconds": 1.0},
            {"a.seconds": 1.1, "b.seconds": 3.0, "c.seconds": 2.0},
        )
        assert [delta.key for delta in diff.deltas] == [
            "b.seconds",
            "c.seconds",
            "a.seconds",
        ]

    def test_zero_before_never_divides(self):
        delta = MetricDelta("a.seconds", 0.0, 5.0)
        assert delta.change == 0.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(InvalidParameterError):
            diff_metrics({}, {}, threshold=-0.1)

    def test_render_marks_regressions(self):
        diff = diff_metrics({"a.seconds": 1.0}, {"a.seconds": 2.0})
        rendered = render_diff(diff)
        assert "REGRESSED" in rendered
        assert "1 regression(s)" in rendered


class TestGate:
    _BASELINE = {"tolerance": 0.25, "kernels": {"reduction": {"speedup": 2.0}}}

    def _report(self, speedup):
        return {"kernels": {"reduction": {"speedup": speedup}}}

    def test_passes_at_the_floor(self):
        result = gate_report(self._BASELINE, self._report(1.5))
        assert result.ok
        assert "ok" in result.table

    def test_fails_below_the_floor(self):
        result = gate_report(self._BASELINE, self._report(1.49))
        assert not result.ok
        assert "below the floor 1.50x" in result.failures[0]

    def test_missing_kernel_is_a_failure(self):
        result = gate_report(self._BASELINE, {"kernels": {}})
        assert not result.ok
        assert "MISSING" in result.table
        assert "not measured" in result.failures[0]

    def test_tolerance_override(self):
        assert not gate_report(self._BASELINE, self._report(1.5), tolerance=0.1).ok
        assert gate_report(self._BASELINE, self._report(1.5), tolerance=0.3).ok

    def test_baseline_without_kernels_rejected(self):
        with pytest.raises(InvalidParameterError):
            gate_report({"tolerance": 0.25}, self._report(2.0))
