"""Diffing performance reports: ``repro perfdiff A B`` and the CI gate.

Two complementary modes over ``BENCH_perf.json``-style reports and
telemetry JSONL runs:

* **diff** — flatten both inputs to ``key -> value`` metric tables
  (:func:`load_metrics`), compare shared keys, and flag any metric that
  moved past a configurable threshold in its *bad* direction
  (:func:`diff_metrics`).  Time- and count-like metrics regress upward;
  ``kernels.<name>.speedup`` ratios regress downward.  The CLI exits
  nonzero when regressions remain, so two artifact files from different
  CI runs can gate a merge directly.
* **gate** — the kernel-speedup floor check CI runs as ``repro
  perfdiff --gate`` (:func:`gate_report`): every kernel tracked by the
  committed ``BENCH_perf.baseline.json`` must be measured and must keep
  at least ``baseline * (1 - tolerance)`` of its speedup.

Pure functions end to end — loading, flattening, diffing, rendering all
return values; printing and exit codes belong to the CLI layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.errors import InvalidParameterError
from repro.obs.trace import RunData, load_run

__all__ = [
    "DEFAULT_THRESHOLD",
    "GateResult",
    "MetricDelta",
    "PerfDiff",
    "diff_metrics",
    "flatten_perf_report",
    "flatten_run_metrics",
    "gate_report",
    "load_metrics",
    "render_diff",
]

#: Default fractional move (in the bad direction) that counts as a
#: regression — matching the kernel gate's historical 25% tolerance.
DEFAULT_THRESHOLD = 0.25


def _higher_is_better(key: str) -> bool:
    """Direction of goodness for a metric key.

    Speedup ratios are the only tracked metrics where bigger is better;
    everything else (seconds, counts, bytes, quantiles) regresses by
    growing.
    """
    return key.endswith(".speedup")


@dataclass(frozen=True)
class MetricDelta:
    """One shared metric key compared across two reports."""

    key: str
    before: float
    after: float

    @property
    def change(self) -> float:
        """Fractional change ``(after - before) / before`` (0 when before is 0)."""
        if self.before == 0:
            return 0.0
        return (self.after - self.before) / self.before

    @property
    def severity(self) -> float:
        """Fractional move in the metric's *bad* direction (signed)."""
        return -self.change if _higher_is_better(self.key) else self.change

    def regressed(self, threshold: float) -> bool:
        """Whether the bad-direction move exceeds ``threshold``."""
        return self.severity > threshold


@dataclass(frozen=True)
class PerfDiff:
    """The outcome of diffing two metric tables."""

    deltas: list[MetricDelta]
    missing: list[str]
    added: list[str]
    threshold: float

    @property
    def regressions(self) -> list[MetricDelta]:
        """The deltas past the threshold, worst first."""
        return [delta for delta in self.deltas if delta.regressed(self.threshold)]


def flatten_perf_report(data: Mapping[str, Any]) -> dict[str, float]:
    """Flatten a ``BENCH_perf.json`` document into ``key -> value``.

    Handles both exhibit layouts: plain seconds (schema 1) and the
    ``{"seconds", "p50", "p99"}`` objects that quantile-aware runs
    write (null quantiles — telemetry was off — are skipped).
    """
    metrics: dict[str, float] = {}
    for exhibit, value in (data.get("exhibits") or {}).items():
        if isinstance(value, Mapping):
            for column in ("seconds", "p50", "p99"):
                number = value.get(column)
                if isinstance(number, (int, float)):
                    metrics[f"exhibits.{exhibit}.{column}"] = float(number)
        elif isinstance(value, (int, float)):
            metrics[f"exhibits.{exhibit}.seconds"] = float(value)
    for node, seconds in (data.get("tests") or {}).items():
        if isinstance(seconds, (int, float)):
            metrics[f"tests.{node}.seconds"] = float(seconds)
    total = data.get("total_seconds")
    if isinstance(total, (int, float)):
        metrics["total.seconds"] = float(total)
    for name, entry in (data.get("kernels") or {}).items():
        speedup = entry.get("speedup") if isinstance(entry, Mapping) else None
        if isinstance(speedup, (int, float)):
            metrics[f"kernels.{name}.speedup"] = float(speedup)
    telemetry = data.get("telemetry") or {}
    for name, entry in (telemetry.get("spans") or {}).items():
        seconds = entry.get("seconds") if isinstance(entry, Mapping) else None
        if isinstance(seconds, (int, float)):
            metrics[f"telemetry.spans.{name}.seconds"] = float(seconds)
    return metrics


def flatten_run_metrics(run: RunData) -> dict[str, float]:
    """Flatten a telemetry run into ``key -> value`` metrics.

    Spans aggregate to per-name total seconds and counts, counters pass
    through, and populated histograms contribute their p50/p99 — enough
    to diff two recorded runs of the same command.
    """
    metrics: dict[str, float] = {}
    for record in run.spans:
        name = record["name"]
        metrics[f"spans.{name}.count"] = metrics.get(f"spans.{name}.count", 0.0) + 1
        metrics[f"spans.{name}.seconds"] = round(
            metrics.get(f"spans.{name}.seconds", 0.0) + record.get("dur", 0.0), 6
        )
    for name, value in run.counters.items():
        metrics[f"counters.{name}"] = float(value)
    for name, histogram in run.histograms.items():
        if histogram.count:
            metrics[f"quantiles.{name}.p50"] = histogram.quantile(0.50)
            metrics[f"quantiles.{name}.p99"] = histogram.quantile(0.99)
    return metrics


def load_metrics(path: str | Path) -> dict[str, float]:
    """Load a metrics table from a perf report or telemetry JSONL file.

    A file whose whole text parses as one JSON object is treated as a
    ``BENCH_perf.json``-style report; anything else must parse as a
    telemetry run (JSON Lines with ``ev`` records).
    """
    source = Path(path)
    if not source.exists():
        raise InvalidParameterError(f"no perf report at {source}")
    text = source.read_text(encoding="utf-8")
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        document = None
    if isinstance(document, Mapping):
        if "ev" in document:
            # A single-record JSONL file still parses as one object.
            return flatten_run_metrics(load_run(source))
        return flatten_perf_report(document)
    return flatten_run_metrics(load_run(source))


def diff_metrics(
    before: Mapping[str, float],
    after: Mapping[str, float],
    threshold: float = DEFAULT_THRESHOLD,
    min_value: float = 0.0,
) -> PerfDiff:
    """Compare two metric tables; deltas come back worst-regression first.

    ``min_value`` suppresses noise: keys where both sides sit below it
    (smoke-scale micro-timings jitter by multiples) are dropped before
    comparison.
    """
    if threshold < 0:
        raise InvalidParameterError(f"threshold must be >= 0, got {threshold:g}")
    shared = [
        key
        for key in before
        if key in after
        and not (abs(before[key]) < min_value and abs(after[key]) < min_value)
    ]
    deltas = sorted(
        (MetricDelta(key, before[key], after[key]) for key in shared),
        key=lambda delta: (-delta.severity, delta.key),
    )
    return PerfDiff(
        deltas=deltas,
        missing=sorted(key for key in before if key not in after),
        added=sorted(key for key in after if key not in before),
        threshold=threshold,
    )


def _format_value(value: float) -> str:
    return f"{value:.4g}"


def render_diff(diff: PerfDiff, limit: int = 20) -> str:
    """Render a diff as an aligned table: regressions, then the biggest moves.

    Every regression is always listed; below the regression block the
    ``limit`` largest remaining moves (either direction) follow, so the
    output stays readable on thousand-key reports.  Missing/added keys
    are summarized at the end.
    """
    regressed = diff.regressions
    rest = [delta for delta in diff.deltas if not delta.regressed(diff.threshold)]
    rest = sorted(rest, key=lambda delta: (-abs(delta.severity), delta.key))[:limit]
    rows: list[tuple[str, str, str, str, str]] = []
    for delta in regressed + rest:
        flag = ""
        if delta.regressed(diff.threshold):
            flag = "REGRESSED"
        elif delta.severity < -diff.threshold:
            flag = "improved"
        rows.append(
            (
                delta.key,
                _format_value(delta.before),
                _format_value(delta.after),
                f"{delta.change:+.1%}",
                flag,
            )
        )
    header = ("metric", "before", "after", "change", "")
    widths = [max(len(row[i]) for row in rows + [header]) for i in range(5)]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in [header] + rows
    ]
    hidden = len(diff.deltas) - len(regressed) - len(rest)
    if hidden > 0:
        lines.append(f"  ... {hidden} more metrics within threshold")
    if diff.missing:
        lines.append(f"missing after: {len(diff.missing)} keys")
    if diff.added:
        lines.append(f"new after: {len(diff.added)} keys")
    lines.append(
        f"{len(regressed)} regression(s) past {diff.threshold:.0%} "
        f"over {len(diff.deltas)} shared metrics"
    )
    return "\n".join(lines)


@dataclass(frozen=True)
class GateResult:
    """Outcome of the kernel-speedup floor check."""

    table: str
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every tracked kernel met its floor."""
        return not self.failures


def gate_report(
    baseline: Mapping[str, Any],
    report: Mapping[str, Any],
    tolerance: float | None = None,
) -> GateResult:
    """The perf-smoke gate: measured kernel speedups vs the baseline.

    Every kernel in ``baseline["kernels"]`` must appear in the report
    (a missing measurement is itself a failure) with a speedup of at
    least ``baseline * (1 - tolerance)``; ``tolerance`` defaults to the
    baseline file's own ``tolerance`` field (0.25 if absent).
    """
    if "kernels" not in baseline:
        raise InvalidParameterError(
            "baseline has no 'kernels' section; is this BENCH_perf.baseline.json?"
        )
    resolved = (
        tolerance if tolerance is not None else float(baseline.get("tolerance", 0.25))
    )
    measured = report.get("kernels", {})
    failures: list[str] = []
    rows: list[tuple[str, str, str, str, str]] = []
    for name, entry in sorted(baseline["kernels"].items()):
        floor = entry["speedup"] * (1.0 - resolved)
        current = measured.get(name, {}).get("speedup")
        if current is None:
            rows.append(
                (name, f"{entry['speedup']:.2f}x", f"{floor:.2f}x", "—", "MISSING")
            )
            failures.append(f"{name}: not measured (missing from the report)")
            continue
        ok = current >= floor
        rows.append(
            (
                name,
                f"{entry['speedup']:.2f}x",
                f"{floor:.2f}x",
                f"{current:.2f}x",
                "ok" if ok else "REGRESSED",
            )
        )
        if not ok:
            failures.append(
                f"{name}: speedup {current:.2f}x is below the floor {floor:.2f}x "
                f"(baseline {entry['speedup']:.2f}x - {resolved:.0%})"
            )
    header = ("kernel", "baseline", "floor", "now", "")
    widths = [max(len(row[i]) for row in rows + [header]) for i in range(5)]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in [header] + rows
    ]
    if not failures:
        lines.append(
            f"all {len(rows)} tracked kernel speedups within {resolved:.0%} of baseline"
        )
    return GateResult(table="\n".join(lines), failures=failures)
