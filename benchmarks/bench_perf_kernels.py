"""Before/after microbenchmarks of the native-speed kernel tier.

Each test times the *same* workload twice — once through a per-trial
reference (``FrequencyProfile.from_sample`` of each sample, the scalar
``estimate`` of each profile) and once through the kernel tier
(single-pass reduction, ``estimate_batch``) — asserts the two produce
identical results, and records both timings into ``BENCH_perf.json``'s
``kernels`` section (the reference under ``legacy_seconds``).
``scripts/check_perf_baseline.py`` compares the recorded speedups
against the committed ``BENCH_perf.baseline.json`` and fails CI when any
tracked speedup regresses by more than 25%.

Speedups (ratios on one machine, one process) are what the baseline
pins, not absolute seconds, so the gate is robust to runner hardware.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from conftest import record_kernel_times
from repro.core.base import ratio_error
from repro.core.registry import make_estimator, make_estimators
from repro.data import zipf_column
from repro.experiments import config
from repro.experiments.harness import evaluate_column
from repro.frequency import FrequencyProfile
from repro.frequency.batch import FrequencyProfileBatch
from repro.sampling import UniformWithoutReplacement, profiles_from_samples

#: Estimators with dedicated vector kernels whose speedup the baseline
#: tracks.  The hybrids matter most: their scalar path re-derives the
#: gate statistic per profile, the batch path computes it once.
TRACKED_ESTIMATORS = ("GEE", "Shlosser", "AE", "HYBGEE", "HYBSKEW")

_REPEATS = 3


def _best_of(fn, repeats: int = _REPEATS) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _trial_samples(trials: int = 10):
    rng = np.random.default_rng(21)
    n = config.scaled_rows(1_000_000, keep_divisible_by=10)
    column = zipf_column(n, z=1.0, duplication=10, rng=rng)
    sampler = UniformWithoutReplacement()
    return [
        sampler.sample(column.values, rng, fraction=0.01) for _ in range(trials)
    ]


def _trial_profiles(trials: int = 50):
    rng = np.random.default_rng(23)
    ranks = np.arange(1, 20_001)
    weights = ranks ** -1.5
    weights /= weights.sum()
    size = max(config.scaled_rows(10_000), 100)
    return [
        FrequencyProfile.from_sample(rng.choice(ranks, size=size, p=weights))
        for _ in range(trials)
    ]


def test_reduction_kernel(benchmark):
    """Single-pass bincount reduction vs ``from_sample`` of each trial."""
    samples = _trial_samples()
    reference_seconds, reference = _best_of(
        lambda: [FrequencyProfile.from_sample(sample) for sample in samples]
    )
    fast_seconds, fast = _best_of(lambda: profiles_from_samples(samples))
    assert fast == reference
    record_kernel_times("reduction", reference_seconds, fast_seconds)
    benchmark.pedantic(
        lambda: profiles_from_samples(samples), rounds=1, iterations=1
    )


@pytest.mark.parametrize("name", TRACKED_ESTIMATORS)
def test_estimator_batch_kernel(benchmark, name):
    """``estimate_batch`` vector kernels vs the scalar estimate loop."""
    profiles = _trial_profiles()
    batch = FrequencyProfileBatch.from_profiles(profiles)
    estimator = make_estimator(name)
    n = 10**6
    legacy_seconds, scalar = _best_of(
        lambda: [estimator.estimate(p, n) for p in profiles]
    )
    fast_seconds, batched = _best_of(lambda: estimator.estimate_batch(batch, n))
    assert scalar == batched
    record_kernel_times(f"estimator.{name}", legacy_seconds, fast_seconds)
    benchmark.pedantic(
        lambda: estimator.estimate_batch(batch, n), rounds=1, iterations=1
    )


def test_harness_estimate_stage(benchmark):
    """The harness inner loop end to end: per-trial reference vs kernel tier.

    This is the ``sweep.point`` self-time driver: one column, the full
    paper estimator suite, shared trial profiles.  The reference draws,
    profiles and estimates one trial at a time.
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
