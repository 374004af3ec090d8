"""``python3 bench/run.py compare A.json ... -- B.json ...``

Compares results files of a parent commit (A) with those of a change
(B), written by ``bench/run.py --out``.  The i-th A file and the i-th B
file form a pair; run them alternately, parent first in even pairs.
For every workload and end-to-end metric it prints each side's median
and quartiles and a verdict:

* ``improved``: the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  spread;
* ``unresolved``: the run-to-run spread of either side is wider than the
  metric's bound and not every change run beats every parent run;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``unchanged``: otherwise.

Per-layer medians and their deltas are printed beside the verdicts, so
a verdict can be traced to the layer that moved.  Exit status is 1 when
any verdict is ``regressed``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

IMPROVED, UNCHANGED, REGRESSED, UNRESOLVED = "improved", "unchanged", "regressed", "unresolved"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Classify one metric's change under the pairing rule above."""
    sign = 1.0 if better == "lower" else -1.0

    def gain(before: float, after: float) -> float:  # > 0: after is better
        return sign * (before - after)

    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(gain(p, c) > 0 for p, c in pairs)
    if wins >= 0.9 * len(pairs) and gain(p_median, c_median) > p_q3 - p_q1:
        return IMPROVED
    spread = max((p_q3 - p_q1) / abs(p_median), (c_q3 - c_q1) / abs(c_median))
    every_run_better = all(gain(p, c) > 0 for p in parent for c in change)
    if spread > bound and not every_run_better:
        return UNRESOLVED
    if -gain(p_median, c_median) > bound * abs(p_median):
        return REGRESSED
    return UNCHANGED


def _values(results: list[dict], workload: str, metric: str) -> list[float]:
    values = []
    for result in results:
        entry = result["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        if entry is not None:
            values.append(entry["value"])
    return values


def _fmt(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(parent: list[dict], change: list[dict], spec: dict) -> tuple[list[str], int]:
    """Report lines and the number of regressed verdicts."""
    lines, regressions = [], 0
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        rows = []
        for metric in spec["end_to_end"]:
            a = _values(parent, workload, metric["name"])
            b = _values(change, workload, metric["name"])
            if not a or not b:
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            regressions += result == REGRESSED
            delta = statistics.median(b) / statistics.median(a) - 1
            rows.append(
                f"  {metric['name']:<14} A {_fmt(a):<28} B {_fmt(b):<28} "
                f"{delta:+7.1%}  {result}  ({metric['unit']}, n={len(a)}/{len(b)})"
            )
        if not rows:
            continue
        lines.append(f"{workload}")
        lines.extend(rows)
        for metric in spec["per_layer"]:
            a = _values(parent, workload, metric["name"])
            b = _values(change, workload, metric["name"])
            if not a or not b:
                continue
            a_median, b_median = statistics.median(a), statistics.median(b)
            if a_median == b_median == 0:
                continue
            delta = f"{b_median / a_median - 1:+.1%}" if a_median else "new"
            lines.append(
                f"    {metric['name']:<34} {a_median:>12.4g} -> {b_median:<12.4g} "
                f"{delta:>8} {metric['unit']}"
            )
    return lines, regressions


def main(argv: list[str], spec: dict) -> int:
    if "--" not in argv:
        print("usage: run.py compare A.json ... -- B.json ...")
        return 2
    split = argv.index("--")
    sides = argv[:split], argv[split + 1:]
    if not all(sides):
        print("usage: run.py compare A.json ... -- B.json ...")
        return 2
    parent, change = ([json.loads(Path(p).read_text()) for p in side] for side in sides)
    lines, regressions = compare(parent, change, spec)
    print("\n".join(lines))
    return 1 if regressions else 0
