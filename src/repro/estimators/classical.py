"""Classical species-richness estimators from the statistics literature.

The paper's related-work section (§1.1) points to the species-estimation
literature surveyed by Bunge and Fitzpatrick; earlier database work
applied these estimators "with relatively poor results".  We include the
standard representatives both as historical baselines and because the
hybrid estimators borrow their building blocks (sample coverage, CV).

Notation as usual: ``n`` rows, sample of ``r`` rows, ``q = r/n``, ``d``
distinct in the sample, ``f_i`` values sampled exactly ``i`` times.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.contracts import ensures, requires
from repro.core.base import DistinctValueEstimator
from repro.errors import InvalidParameterError
from repro.frequency.profile import FrequencyProfile
from repro.frequency.statistics import coverage_estimate_distinct, cv_squared

__all__ = [
    "Chao",
    "ChaoLee",
    "Goodman",
    "Bootstrap",
    "HorvitzThompson",
    "NaiveScaleUp",
    "SampleDistinct",
]

#: ~ log(1e280): Goodman's alternating sum is abandoned (returning inf)
#: once a term's log-magnitude passes this.
_LOG_TERM_LIMIT = 280.0 * math.log(10.0)


class Chao(DistinctValueEstimator):
    """Chao's 1984 lower-bound estimator, ``d + f_1^2 / (2 f_2)``.

    When the sample has no doubletons the bias-corrected variant
    ``d + f_1 (f_1 - 1) / 2`` is used.  Chao's estimate targets a lower
    bound on ``D``, so it underestimates heavily at small sampling
    fractions.
    """

    name = "Chao84"

    @requires(
        "profile.sample_size >= 1",
        "population_size >= 1",
        "profile.distinct >= 0",
        "profile.f1 >= 0",
    )
    @ensures("result >= profile.distinct")
    def _estimate_raw(self, profile: FrequencyProfile, population_size: int) -> float:
        d = profile.distinct
        f1 = profile.f1
        f2 = profile.f2
        if f2 > 0:
            return d + f1 * f1 / (2.0 * f2)
        # max(f1 - 1, 0) == f1 - 1 whenever the product is nonzero, so
        # this equals the classic f1 (f1 - 1) / 2 correction while making
        # the lower-bound clause above machine-checkable.
        return d + f1 * max(f1 - 1, 0) / 2.0


class ChaoLee(DistinctValueEstimator):
    """Chao and Lee's 1992 coverage-based estimator.

    ``D_hat = d / C_hat + r (1 - C_hat) / C_hat * gamma^2`` where
    ``C_hat = 1 - f_1 / r`` is the Good–Turing coverage and ``gamma^2``
    the estimated squared CV of class sizes.  Known to blow up on
    low-coverage samples (``C_hat -> 0``); the sanity bounds absorb
    those cases.
    """

    name = "ChaoLee"

    @requires(
        "profile.sample_size >= 1",
        "population_size >= 1",
        "profile.distinct >= 0",
    )
    @ensures("result[0] >= profile.distinct")
    def _estimate_raw(
        self, profile: FrequencyProfile, population_size: int
    ) -> tuple[float, Mapping[str, object]]:
        r = profile.sample_size
        coverage = profile.sample_coverage()
        if coverage <= 0.0:
            return float("inf"), {"coverage": coverage, "cv_squared": 0.0}
        base = coverage_estimate_distinct(profile)
        gamma_sq = cv_squared(profile, distinct_estimate=base)
        estimate = base + r * (1.0 - coverage) / coverage * gamma_sq
        return estimate, {"coverage": coverage, "cv_squared": gamma_sq}


class Goodman(DistinctValueEstimator):
    """Goodman's 1949 unique unbiased estimator (sampling without replacement).

    ``D_hat = d + sum_{i=1}^{r} (-1)^{i+1} [(n - r + i)! (r - i)!] /
    [(n - r)! r!] * f_i``.

    This is the *only* unbiased estimator of ``D`` for simple random
    sampling without replacement, but its variance is astronomically
    large unless ``r`` is close to ``n`` — the alternating factorial
    coefficients explode.  Olken's observation that "all known
    estimators give exceedingly large errors on at least some input
    data" is vividly demonstrated by this one; we include it as the
    canonical cautionary baseline.  Coefficients are computed with
    ``lgamma`` and the sum is abandoned (returning ``inf``) once terms
    overflow ~1e280, at which point the estimate is meaningless anyway
    and the sanity bound pins it to ``n``.
    """

    name = "Goodman"

    @requires("profile.sample_size >= 1", "population_size >= 1")
    def _estimate_raw(self, profile: FrequencyProfile, population_size: int) -> float:
        n = population_size
        r = profile.sample_size
        if r >= n:
            return float(profile.distinct)
        log_base = math.lgamma(n - r + 1) + math.lgamma(r + 1)
        total = float(profile.distinct)
        for i, count in profile.counts.items():
            if i > r:
                continue
            log_coeff = (
                math.lgamma(n - r + i + 1) + math.lgamma(r - i + 1) - log_base
            )
            # Abandon once terms pass ~1e280.  A module-level constant
            # (not a class attribute) so the guard also bounds the exp
            # argument for the interval prover (R1303).
            if log_coeff > _LOG_TERM_LIMIT:
                return float("inf")
            sign = 1.0 if i % 2 == 1 else -1.0
            total += sign * math.exp(log_coeff) * count
        return total


class Bootstrap(DistinctValueEstimator):
    """Smith and van Belle's 1984 bootstrap estimator.

    ``D_hat = d + sum_j (1 - c_j / r)^r = d + sum_i f_i (1 - i/r)^r``
    where ``c_j`` is the sample count of class ``j``.  Like the
    first-order jackknife it ignores ``n`` and underestimates at small
    sampling fractions.
    """

    name = "Bootstrap"

    @requires("profile.sample_size >= 1", "population_size >= 1")
    def _estimate_raw(self, profile: FrequencyProfile, population_size: int) -> float:
        r = profile.sample_size
        total = float(profile.distinct)
        for i, count in profile.counts.items():
            if i >= r:
                continue
            total += count * (1.0 - i / r) ** r
        return total


class HorvitzThompson(DistinctValueEstimator):
    """Horvitz–Thompson estimator with plug-in class sizes.

    Each observed class is weighted by the inverse of its estimated
    inclusion probability.  A class sampled ``i`` times is assumed to
    occupy ``i / q`` population rows, giving inclusion probability
    ``1 - (1 - q)^{i/q} ~ 1 - e^{-i}``:

    ``D_hat = sum_i f_i / (1 - (1 - q)^{i/q})``.

    Consistent for frequent classes but blind to wholly-unseen ones, so
    it underestimates when many classes are rare.
    """

    name = "HT"

    @requires("profile.sample_size >= 1", "population_size >= 1")
    def _estimate_raw(self, profile: FrequencyProfile, population_size: int) -> float:
        r = profile.sample_size
        q = min(r / population_size, 1.0)
        if q >= 1.0:
            return float(profile.distinct)
        log_one_minus_q = math.log1p(-q)
        total = 0.0
        for i, count in profile.counts.items():
            # inclusion = 1 - (1-q)^{i/q} lies in (0, 1] for 0 < q < 1;
            # the branch only guards expm1 rounding to exactly zero.
            # i/q >= 0 and log(1-q) <= 0, so the min-clamp is exact and
            # bounds the expm1 argument for the prover (R1303).
            inclusion = -math.expm1(min(0.0, i / q * log_one_minus_q))
            if inclusion > 0.0:
                total += count / inclusion
        return total


class NaiveScaleUp(DistinctValueEstimator):
    """The naive linear scale-up ``D_hat = d * n / r``.

    Correct when every value is distinct; wildly wrong when values
    repeat.  The canonical strawman.
    """

    name = "Scale"

    @requires(
        "profile.sample_size >= 1",
        "population_size >= 1",
        "profile.distinct >= 0",
        "profile.distinct <= profile.sample_size",
        "profile.sample_size <= population_size",
    )
    @ensures("result >= profile.distinct", "result <= population_size")
    def _estimate_raw(self, profile: FrequencyProfile, population_size: int) -> float:
        return profile.distinct * population_size / profile.sample_size


class SampleDistinct(DistinctValueEstimator):
    """The trivial lower bound ``D_hat = d`` (GEE's LOWER)."""

    name = "d"

    @requires(
        "profile.sample_size >= 1",
        "population_size >= 1",
        "profile.distinct >= 0",
        "profile.distinct <= population_size",
    )
    @ensures("result >= profile.distinct", "result <= population_size")
    def _estimate_raw(self, profile: FrequencyProfile, population_size: int) -> float:
        return float(profile.distinct)
