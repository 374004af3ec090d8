"""Bootstrap uncertainty for arbitrary estimators.

The paper's desiderata (§1.2) demand that "an estimator should indicate
the confidence in its estimate and its variance", and §4 delivers that
analytically for GEE.  For the other estimators — which publish no
interval — this module provides the generic sample-level bootstrap:
resample the observed sample (multinomially over its observed classes),
re-run the estimator on each replicate, and report percentile bounds
and the replicate standard deviation.

The bootstrap interval reflects *estimator variability given the
sample*; unlike GEE's ``[LOWER, UPPER]`` it carries no worst-case
coverage guarantee (Theorem 1 forbids one), which is exactly the
contrast the paper draws.

Resampling a sample systematically collapses its singletons (an
observed singleton reappears in a replicate ``Poisson(1)`` times, so
``f_1`` shrinks and ``f_2`` grows), which biases richness estimators on
replicates downward by far more than their spread — neither percentile
nor reflected bootstrap intervals are honest here.  What the replicates
*do* measure reliably is variability, so we report a **variability
band**: the interval centered on the point estimate ``T`` whose width
is the central ``confidence`` quantile range of the replicates, clamped
to the sanity range ``[d, n]``.  Use it to compare estimator stability
(the paper's §5.2 instability argument against HYBSKEW), not as a
coverage interval.

A replicate costs one multinomial draw and one count, both in C.
:func:`bootstrap_estimate` computes the sample's class shares once and
draws all its count vectors in one
``rng.multinomial(r, shares, size=replicates)``, which consumes the
generator exactly as that many successive draws would; each vector's
nonzero counts become a profile through
:meth:`~repro.frequency.FrequencyProfile.from_multiplicities`, which
counts them with :class:`collections.Counter`.  So it sees the same
replicates, in the same order, as one :func:`bootstrap_profile` call
per replicate would give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.core.base import ConfidenceInterval, DistinctValueEstimator
from repro.errors import InvalidParameterError
from repro.frequency.profile import FrequencyProfile

__all__ = [
    "BootstrapSummary",
    "bootstrap_profile",
    "bootstrap_estimate",
    "coefficient_of_variation",
]


@dataclass(frozen=True)
class BootstrapSummary:
    """Replicate statistics for one estimator on one sample."""

    estimate: float
    interval: ConfidenceInterval
    std: float
    replicates: int
    confidence: float


def _class_shares(profile: FrequencyProfile) -> tuple[int, npt.NDArray[np.float64]]:
    """``(r, c_j / r)``: the sample size and each observed class's share.

    Classes come in ascending frequency order (``profile.to_arrays()``),
    whatever the profile's insertion order: the draws depend on it.
    """
    r = profile.sample_size
    if r == 0:
        raise InvalidParameterError("cannot bootstrap an empty sample")
    frequencies, counts = profile.to_arrays()
    # The per-class counts sum to exactly r (sum_i i * f_i), so divide by
    # the validated sample size directly.
    return r, np.repeat(frequencies, counts).astype(np.float64) / r


def _replicate(draw: npt.NDArray[np.int64]) -> FrequencyProfile:
    """The profile of one drawn count vector, dropping unsampled classes."""
    return FrequencyProfile.from_multiplicities(draw[draw > 0].tolist())


def bootstrap_profile(
    profile: FrequencyProfile, rng: np.random.Generator
) -> FrequencyProfile:
    """One bootstrap replicate: resample ``r`` rows from the sample.

    The observed sample contains ``d`` classes with counts ``c_j``;
    resampling ``r`` rows with replacement draws new class counts from
    ``Multinomial(r, c_j / r)`` and drops classes that receive zero.
    """
    r, shares = _class_shares(profile)
    return _replicate(rng.multinomial(r, shares))


def bootstrap_estimate(
    estimator: DistinctValueEstimator,
    profile: FrequencyProfile,
    population_size: int,
    rng: np.random.Generator,
    replicates: int = 200,
    confidence: float = 0.95,
) -> BootstrapSummary:
    """Percentile-bootstrap interval and stddev for any estimator.

    Parameters
    ----------
    estimator:
        Any :class:`~repro.core.DistinctValueEstimator`.
    profile, population_size:
        The observed sample and ``n``.
    replicates:
        Bootstrap resamples (>= 20).
    confidence:
        Central coverage of the percentile interval, e.g. 0.95.
    """
    if replicates < 20:
        raise InvalidParameterError(f"need >= 20 replicates, got {replicates}")
    if not 0.0 < confidence < 1.0:
        raise InvalidParameterError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    point = estimator.estimate(profile, population_size).value
    r, shares = _class_shares(profile)
    draws = rng.multinomial(r, shares, size=replicates)
    values = np.empty(replicates)
    for index, draw in enumerate(draws):
        values[index] = estimator.estimate(_replicate(draw), population_size).value
    tail = (1.0 - confidence) / 2.0
    q_lo, q_hi = np.quantile(values, [tail, 1.0 - tail])
    # Variability band: replicate-quantile width, centred on the point
    # estimate, clamped to the paper's sanity range [d, n].
    half_width = float(q_hi - q_lo) / 2.0
    lower = min(
        max(point - half_width, float(profile.distinct)), float(population_size)
    )
    upper = min(max(point + half_width, lower), float(population_size))
    return BootstrapSummary(
        estimate=point,
        interval=ConfidenceInterval(float(lower), float(upper)),
        std=float(values.std(ddof=1)) if replicates > 1 else 0.0,
        replicates=replicates,
        confidence=confidence,
    )


def coefficient_of_variation(summary: BootstrapSummary) -> float:
    """Replicate CV, a scale-free instability score (HYBSKEW scores high)."""
    if summary.estimate <= 0:
        raise InvalidParameterError("estimate must be positive")
    return summary.std / summary.estimate
