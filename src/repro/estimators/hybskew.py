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

import numpy as np
import numpy.typing as npt

from repro.contracts import ensures, requires
from repro.core.base import DistinctValueEstimator, RawOutcome
from repro.errors import InvalidParameterError
from repro.estimators.jackknife import SmoothedJackknife
from repro.estimators.shlosser import Shlosser
from repro.frequency.batch import FrequencyProfileBatch, segment_sums_int
from repro.frequency.profile import FrequencyProfile
from repro.frequency.skew import chi_squared_critical_value, chi_squared_skew_test

__all__ = ["HybridSkew"]


def _batched_skew_gate(
    batch: FrequencyProfileBatch, alpha: float
) -> tuple[
    npt.NDArray[np.float64], npt.NDArray[np.float64], npt.NDArray[np.bool_]
]:
    """``(statistic, critical, high_skew)`` of the chi-squared gate per profile.

    The statistic ``(sum_i i^2 f_i)/(r/d) - r`` is integer-exact up to
    the final two float operations, and the critical value comes from
    the scalar path's own :func:`chi_squared_critical_value`, evaluated
    once per unique dof.  ``p_value`` is not computed: the hybrids never
    read it.
    """
    distinct = batch.distinct
    r = batch.sample_size
    sum_squares = segment_sums_int(
        batch.frequencies * batch.frequencies * batch.counts, batch.indptr
    )
    degenerate = distinct <= 1
    # d >= 1 for every validated profile, so r/d is always defined.
    expected = r.astype(np.float64) / distinct
    statistic = np.where(degenerate, 0.0, sum_squares / expected - r)  # reprolint: disable=R101 - expected = r/d with r >= 1, d >= 1 post-validation
    dof = np.maximum(distinct - 1, 0)
    critical = np.full(len(batch), np.inf)
    tested = ~degenerate
    if bool(tested.any()):
        unique_dof, inverse = np.unique(dof[tested], return_inverse=True)
        critical[tested] = np.array(
            [chi_squared_critical_value(int(k), alpha) for k in unique_dof],
            dtype=np.float64,
        )[inverse]
    return statistic, critical, statistic > critical


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

    def _estimate_raw_batch(
        self, batch: FrequencyProfileBatch, population_size: int
    ) -> list[RawOutcome]:
        # Gate every profile with one vectorized chi-squared pass, then
        # evaluate each branch once over the profiles it won — the branch
        # estimators' own estimate_batch keeps their values (and nested
        # contracts/telemetry) identical to per-profile calls.
        statistic, critical, high_skew = _batched_skew_gate(batch, self.alpha)
        values: list[float] = [0.0] * len(batch)
        for branch, indices in (
            (
                self.high_skew_estimator,
                [k for k in range(len(batch)) if high_skew[k]],
            ),
            (
                self.low_skew_estimator,
                [k for k in range(len(batch)) if not high_skew[k]],
            ),
        ):
            if indices:
                inner = branch.estimate_batch(
                    batch.subset(indices), population_size
                )
                for k, estimate in zip(indices, inner):
                    values[k] = estimate.value
        outcomes: list[RawOutcome] = []
        for k in range(len(batch)):
            branch = (
                self.high_skew_estimator
                if high_skew[k]
                else self.low_skew_estimator
            )
            outcomes.append(
                (
                    values[k],
                    {
                        "branch": branch.name,
                        "high_skew": bool(high_skew[k]),
                        "chi2_statistic": float(statistic[k]),
                        "chi2_critical": float(critical[k]),
                    },
                )
            )
        return outcomes
