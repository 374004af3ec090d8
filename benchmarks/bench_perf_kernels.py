"""Before/after microbenchmark of the harness estimate stage.

The test times the *same* workload twice — once through a per-trial
reference and once through the path the harness runs — asserts the two
produce identical results, and records both timings into
``BENCH_perf.json``'s ``kernels`` section (the reference under
``legacy_seconds``):

* ``harness.estimate``: drawing, profiling and estimating one trial at a
  time vs ``evaluate_column``.

``repro perfdiff --gate`` compares the recorded speedups against the
committed ``BENCH_perf.baseline.json`` and fails CI when any tracked
speedup regresses by more than 25%.

Speedups (ratios on one machine, one process) are what the baseline
pins, not absolute seconds, so the gate is robust to runner hardware.
"""

from __future__ import annotations

import math
import time

import numpy as np

from conftest import record_kernel_times
from repro.core.base import ratio_error
from repro.core.registry import make_estimators
from repro.data import zipf_column
from repro.experiments import config
from repro.experiments.harness import evaluate_column
from repro.frequency import FrequencyProfile
from repro.sampling import UniformWithoutReplacement

_REPEATS = 3


def _best_of(fn, repeats: int = _REPEATS) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_harness_estimate_stage(benchmark):
    """The harness inner loop end to end: per-trial reference vs ``evaluate_column``.

    This is the ``sweep.point`` self-time driver: one column, the full
    paper estimator suite, shared trial profiles.  The reference draws,
    profiles and estimates one trial at a time; ``evaluate_column``
    draws and profiles every trial through ``profile_batch``, then
    estimates each profile.
    """
    rng = np.random.default_rng(27)
    n = config.scaled_rows(1_000_000, keep_divisible_by=10)
    column = zipf_column(n, z=1.0, duplication=10, rng=rng)
    estimators = make_estimators(
        ["GEE", "AE", "Shlosser", "SJ", "JK2", "HYBGEE", "HYBSKEW", "HYBVAR"]
    )
    trials = config.trials()
    sampler = UniformWithoutReplacement()

    def reference():
        draws = np.random.default_rng(5)
        profiles = [
            FrequencyProfile.from_sample(
                sampler.sample(column.values, draws, fraction=0.01)
            )
            for _ in range(trials)
        ]
        means = {}
        for estimator in estimators:
            values = [estimator.estimate(p, column.n_rows).value for p in profiles]
            means[estimator.name] = (
                math.fsum(values) / trials,
                math.fsum(ratio_error(v, column.distinct_count) for v in values)
                / trials,
            )
        return means

    def run():
        return evaluate_column(
            column,
            estimators,
            np.random.default_rng(5),
            fraction=0.01,
            trials=trials,
        )

    reference_seconds, expected = _best_of(reference)
    fast_seconds, fast = _best_of(run)
    assert {
        name: (summary.mean_estimate, summary.mean_ratio_error)
        for name, summary in fast.summaries.items()
    } == expected
    record_kernel_times("harness.estimate", reference_seconds, fast_seconds)
    benchmark.pedantic(run, rounds=1, iterations=1)
