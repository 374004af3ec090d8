"""The measurement harness: trials, ratio errors, and variance.

One *evaluation* follows the paper's protocol exactly: draw ``T``
independent samples of a column; for each sample, compute the frequency
profile once and feed the *same* profile to every estimator; report per
estimator the mean ratio error over trials and the standard deviation of
its estimates as a fraction of the true distinct count.

All ``T`` trial profiles come from one
:meth:`~repro.sampling.base.RowSampler.profile_batch` call, which
consumes the random stream exactly as a one-trial-at-a-time loop would;
each estimator then estimates the ``T`` profiles one at a time.
Estimators are pure functions of the profile, so the result equals
drawing, profiling and estimating one trial at a time, bit for bit.

The harness hands the sampler the column itself.  A column with rows is
sampled row by row, one ``_draw`` and one
:meth:`~repro.frequency.profile.FrequencyProfile.from_sample` per
trial; a size-only column (every sweep column) has its profiles drawn
from its class sizes, with the same law and no rows.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.base import DistinctValueEstimator, ratio_error
from repro.data.column import Column
from repro.errors import InvalidParameterError
from repro.frequency.batch import FrequencyProfileBatch
from repro.obs.recorder import OBS
from repro.sampling.base import RowSampler
from repro.sampling.schemes import UniformWithoutReplacement

__all__ = ["EstimatorSummary", "EvaluationResult", "evaluate_column"]


@dataclass(frozen=True)
class EstimatorSummary:
    """Aggregated performance of one estimator on one configuration."""

    estimator: str
    trials: int
    true_distinct: int
    mean_estimate: float
    mean_ratio_error: float
    max_ratio_error: float
    std_fraction: float
    mean_lower: float | None = None
    mean_upper: float | None = None

    @property
    def mean_relative_error(self) -> float:
        """Signed relative error of the mean estimate."""
        return (self.mean_estimate - self.true_distinct) / self.true_distinct


@dataclass(frozen=True)
class EvaluationResult:
    """All estimator summaries for one (column, sampling) configuration.

    ``sample_size`` is the realized sample size averaged over trials and
    rounded to the nearest row.  Fixed-size schemes realize the same
    size every trial, so the mean is exact; for :class:`Bernoulli` the
    per-trial size is ``Binomial(n, r/n)`` and the mean is the honest
    summary (earlier versions reported whichever size the *last* trial
    happened to draw).
    """

    column_name: str
    n_rows: int
    true_distinct: int
    sample_size: int
    summaries: dict[str, EstimatorSummary]

    def __getitem__(self, estimator_name: str) -> EstimatorSummary:
        return self.summaries[estimator_name]

    @property
    def sampling_fraction(self) -> float:
        return self.sample_size / self.n_rows


def evaluate_column(
    column: Column,
    estimators: Sequence[DistinctValueEstimator],
    rng: np.random.Generator,
    fraction: float | None = None,
    size: int | None = None,
    trials: int = 10,
    sampler: RowSampler | None = None,
) -> EvaluationResult:
    """Run the paper's trial protocol on one column.

    Parameters
    ----------
    column:
        The column under test (ground truth comes from it).
    estimators:
        Estimators to compare; each trial's sample profile is shared by
        all of them, as in the paper's modified-server setup.
    fraction, size:
        Sampling fraction or absolute sample size (exactly one).
    trials:
        Independent samples to average over (paper: 10).
    sampler:
        Sampling scheme; default uniform without replacement.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    if not estimators:
        raise InvalidParameterError("at least one estimator is required")
    sampler = sampler if sampler is not None else UniformWithoutReplacement()
    true_distinct = column.distinct_count
    n = column.n_rows

    estimates: dict[str, list[float]] = {e.name: [] for e in estimators}
    errors: dict[str, list[float]] = {e.name: [] for e in estimators}
    lowers: dict[str, list[float]] = {e.name: [] for e in estimators}
    uppers: dict[str, list[float]] = {e.name: [] for e in estimators}
    with OBS.span(
        "harness.evaluate_column",
        column=column.name,
        trials=trials,
        estimators=len(estimators),
    ):
        if OBS.enabled:
            OBS.add("harness.evaluations")
        profiles = sampler.profile_batch(
            column, rng, trials, size=size, fraction=fraction
        )
        realized_sample_size = round(
            math.fsum(p.sample_size for p in profiles) / trials
        )
        with OBS.span("harness.estimate", trials=trials):
            # Estimator-major: each estimator estimates every trial's
            # profile in turn, so its outcomes land in trial order.
            batch = FrequencyProfileBatch.from_profiles(profiles)
            for estimator in estimators:
                for outcome in estimator.estimate_batch(batch, n):
                    estimates[estimator.name].append(outcome.value)
                    errors[estimator.name].append(
                        ratio_error(outcome.value, true_distinct)
                    )
                    if outcome.interval is not None:
                        lowers[estimator.name].append(outcome.interval.lower)
                        uppers[estimator.name].append(outcome.interval.upper)

    summaries = {}
    for estimator in estimators:
        name = estimator.name
        values = estimates[name]
        mean_estimate = math.fsum(values) / trials
        if trials > 1:
            variance = math.fsum((v - mean_estimate) ** 2 for v in values) / (
                trials - 1
            )
        else:
            variance = 0.0
        summaries[name] = EstimatorSummary(
            estimator=name,
            trials=trials,
            true_distinct=true_distinct,
            mean_estimate=mean_estimate,
            mean_ratio_error=math.fsum(errors[name]) / trials,
            max_ratio_error=max(errors[name]),
            std_fraction=math.sqrt(variance) / true_distinct,
            mean_lower=(
                math.fsum(lowers[name]) / len(lowers[name]) if lowers[name] else None
            ),
            mean_upper=(
                math.fsum(uppers[name]) / len(uppers[name]) if uppers[name] else None
            ),
        )
    return EvaluationResult(
        column_name=column.name,
        n_rows=n,
        true_distinct=true_distinct,
        sample_size=realized_sample_size,
        summaries=summaries,
    )
