"""HYBSKEW — the hybrid estimator of Haas, Naughton, Seshadri, Stokes (VLDB'95).

HYBSKEW "first uses the standard chi-squared test on the random sample to
probabilistically estimate whether the data has high skew or low skew,
resorting to Shlosser's estimator in the former case and the smoothed
jackknife estimator in the latter case" (paper §5).

The PODS paper's critique of this construction (motivating both HYBGEE
and AE, §5.2): the two branch estimators usually produce very different
values, so samples near the test's decision boundary flip between them,
yielding high variance and non-monotone error as the sampling fraction
grows.  Our experiments reproduce exactly that behaviour.
"""

from __future__ import annotations

from typing import Mapping

from repro.contracts import ensures, requires
from repro.core.base import DistinctValueEstimator
from repro.errors import InvalidParameterError
from repro.estimators.jackknife import SmoothedJackknife
from repro.estimators.shlosser import Shlosser
from repro.frequency.profile import FrequencyProfile
from repro.frequency.skew import chi_squared_skew_test

__all__ = ["HybridSkew"]


class HybridSkew(DistinctValueEstimator):
    """Chi-squared-gated hybrid of the smoothed jackknife and Shlosser.

    Parameters
    ----------
    alpha:
        Significance level of the chi-squared uniformity test; the
        sample is declared high-skew (Shlosser branch) when the test
        rejects at this level.
    low_skew_estimator, high_skew_estimator:
        Branch estimators; injectable so HYBGEE can reuse this gating
        logic with GEE on the high-skew branch, and so the ablation
        benchmarks can swap branches.
    """

    name = "HYBSKEW"

    def __init__(
        self,
        alpha: float = 0.05,
        low_skew_estimator: DistinctValueEstimator | None = None,
        high_skew_estimator: DistinctValueEstimator | None = None,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise InvalidParameterError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = float(alpha)
        self.low_skew_estimator = low_skew_estimator or SmoothedJackknife()
        self.high_skew_estimator = high_skew_estimator or Shlosser()

    @requires(
        "profile.sample_size >= 1",
        "population_size >= 1",
        "profile.distinct >= 0",
        "profile.distinct <= population_size",
    )
    @ensures("result[0] >= profile.distinct", "result[0] <= population_size")
    def _estimate_raw(
        self, profile: FrequencyProfile, population_size: int
    ) -> tuple[float, Mapping[str, object]]:
        test = chi_squared_skew_test(profile, alpha=self.alpha)
        branch = self.high_skew_estimator if test.high_skew else self.low_skew_estimator
        inner = branch.estimate(profile, population_size)
        details = {
            "branch": branch.name,
            "high_skew": test.high_skew,
            "chi2_statistic": test.statistic,
            "chi2_critical": test.critical_value,
        }
        return inner.value, details
