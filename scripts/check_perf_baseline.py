#!/usr/bin/env python
"""Gate the kernel-tier speedups in BENCH_perf.json against the baseline.

``benchmarks/bench_perf_kernels.py`` times each tracked kernel twice in
the same process — per-trial reference, then fast path — and records
the ratio under the report's ``"kernels"`` key.  Ratios measured back-to-back on
one machine are robust to runner speed, so the committed
``BENCH_perf.baseline.json`` pins them directly: this script fails when
any tracked speedup falls more than ``tolerance`` (default 25%) below
its baseline, which is how a silent scalar-path regression or a kernel
that quietly stopped vectorizing shows up in CI.

This script is a thin wrapper over :func:`repro.obs.perfdiff.gate_report`
— the same check ``repro perfdiff --gate`` runs — kept for muscle memory
and existing automation.

Run after a benchmark pass::

    python -m pytest benchmarks/ --benchmark-only -q
    python scripts/check_perf_baseline.py
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))

from repro.obs.perfdiff import gate_report  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--report",
        type=Path,
        default=_ROOT / "BENCH_perf.json",
        help="benchmark report to check (default: BENCH_perf.json)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=_ROOT / "BENCH_perf.baseline.json",
        help="committed baseline (default: BENCH_perf.baseline.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed fractional regression (default: the baseline's own value)",
    )
    args = parser.parse_args(argv)

    if not args.report.exists():
        print(
            f"{args.report} not found; run "
            "`python -m pytest benchmarks/ --benchmark-only -q` first",
            file=sys.stderr,
        )
        return 1
    report = json.loads(args.report.read_text(encoding="utf-8"))
    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))

    result = gate_report(baseline, report, tolerance=args.tolerance)
    print(result.table)
    if result.failures:
        print(file=sys.stderr)
        for failure in result.failures:
            print(f"FAIL {failure}", file=sys.stderr)
        print(
            "\nIf the regression is intentional, refresh "
            f"{args.baseline.name} in the same commit (round the new "
            "ratios down, per the file's comment).",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
