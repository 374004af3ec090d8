"""Jackknife-family baseline estimators.

The PODS 2000 paper compares against estimators defined in two earlier
works it cites but does not restate:

* Haas, Naughton, Seshadri, Stokes (VLDB 1995) — the *smoothed jackknife*
  used by HYBSKEW's low-skew branch;
* Haas, Stokes (JASA 1998) — the *generalized jackknife* family
  ``uj1 / uj2 / uj2a`` (DUJ2A) used by HYBVAR.

All of them share the generalized-jackknife form ``D_hat = d + K f_1``
with ``K`` derived from a fitted model — the same device the PODS paper
uses to derive AE (§5.2).  We re-derive each estimator from that common
principle; the derivations live in the class docstrings so the exact
assumptions are auditable.

Shared notation: ``n`` rows in the column, sample of ``r`` rows drawn
uniformly without replacement, sampling fraction ``q = r / n``, ``d``
distinct values in the sample, ``f_i`` values sampled exactly ``i`` times.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.contracts import ensures, requires
from repro.core.base import DistinctValueEstimator, clamp_estimate
from repro.core.roots import brentq
from repro.errors import InvalidParameterError
from repro.frequency.profile import FrequencyProfile

__all__ = [
    "FirstOrderJackknife",
    "SecondOrderJackknife",
    "SmoothedJackknife",
    "MethodOfMoments",
    "UnsmoothedSecondOrderJackknife",
    "DUJ2A",
    "haas_stokes_cv_squared",
]


class FirstOrderJackknife(DistinctValueEstimator):
    """Burnham–Overton first-order jackknife, ``d + ((r-1)/r) f_1``.

    The classic species-richness estimator: ``D_hat = d - (r-1)
    (d_bar_{r-1} - d)`` where ``d_bar_{r-1} = d - f_1/r`` is the mean
    distinct count over leave-one-out subsamples.  It ignores the
    population size entirely, so it underestimates badly at small
    sampling fractions — included as the historical baseline the
    database-specific estimators improve upon.
    """

    name = "JK1"

    @requires(
        "profile.sample_size >= 1",
        "population_size >= 1",
        "profile.distinct >= 0",
        "profile.f1 >= 0",
    )
    @ensures("result >= profile.distinct")
    def _estimate_raw(self, profile: FrequencyProfile, population_size: int) -> float:
        r = profile.sample_size
        return profile.distinct + (r - 1) / r * profile.f1


class SecondOrderJackknife(DistinctValueEstimator):
    """Burnham–Overton second-order jackknife.

    ``D_hat = d + (2r - 3)/r * f_1 - (r - 2)^2 / (r (r - 1)) * f_2``.
    Falls back to the first-order form for samples of fewer than 2 rows.
    """

    name = "JK2"

    @requires("profile.sample_size >= 1", "population_size >= 1")
    def _estimate_raw(self, profile: FrequencyProfile, population_size: int) -> float:
        r = profile.sample_size
        d = profile.distinct
        if r < 2:
            return d + (r - 1) / r * profile.f1
        return (
            d
            + (2 * r - 3) / r * profile.f1
            - (r - 2) ** 2 / (r * (r - 1)) * profile.f2
        )


class SmoothedJackknife(DistinctValueEstimator):
    """The finite-population (smoothed) first-order jackknife of HNSS'95.

    Derivation from the generalized-jackknife principle: require
    ``E[D_hat] = D`` under the fitted *equal class size* model
    ``n_j = n / D`` for all ``j``.  Then (binomial approximation to the
    hypergeometric)

    * ``D - E[d] = D (1 - q)^{n_0}``,
    * ``E[f_1]  = D n_0 q (1 - q)^{n_0 - 1} = r (1 - q)^{n_0 - 1}``,

    with ``n_0 = n / D``, so the unbiased coefficient is
    ``K = (1 - q) / (q n_0) = (1 - q) D / r``.  Substituting
    ``D_hat = d + K f_1`` and solving the resulting linear fixed point
    yields the closed form

        ``D_hat = d / (1 - (1 - q) f_1 / r)``.

    The denominator is always at least ``q`` (since ``f_1 <= r``), so the
    estimate never exceeds ``d / q = d n / r`` — the natural scale-up cap.
    This estimator is (nearly) unbiased on low-skew data and severely
    *under*-estimates on high-skew data with many rare values, exactly
    the behaviour the PODS paper attributes to HYBSKEW's low-skew branch.
    This closed form is also Haas–Stokes' unsmoothed first-order
    jackknife ``uj1``; HYBVAR's uniform branch reuses this class.
    """

    name = "SJ"

    @requires(
        "profile.sample_size >= 1",
        "population_size >= 1",
        "profile.distinct >= 0",
        "profile.distinct <= population_size",
        "profile.f1 >= 0",
        "profile.sample_size <= population_size",
    )
    @ensures("result >= profile.distinct")
    def _estimate_raw(self, profile: FrequencyProfile, population_size: int) -> float:
        r = profile.sample_size
        q = r / population_size
        denominator = 1.0 - (1.0 - q) * profile.f1 / r
        if denominator <= 0.0:
            # f1 <= r forces denominator >= q > 0 algebraically; float
            # rounding can cross zero only at q ~ 0, where no finite
            # scale-up is defensible — saturate at the population size.
            return float(population_size)
        return profile.distinct / denominator


class MethodOfMoments(DistinctValueEstimator):
    """HNSS'95 method-of-moments estimator for low-skew data.

    Solves for ``D`` in the first-moment equation under the equal-size
    model:

        ``d = D (1 - (1 - q)^{n / D})``.

    The right-hand side increases from ``~ d`` toward ``r`` as ``D``
    grows, so a unique root exists whenever ``d < r``; when ``d = r``
    (every sampled row distinct) the equation forces ``D -> n``.
    """

    name = "MM"

    @requires(
        "profile.sample_size >= 1",
        "population_size >= 1",
        "profile.distinct >= 0",
        "profile.distinct <= population_size",
    )
    @ensures("result >= profile.distinct", "result <= population_size")
    def _estimate_raw(self, profile: FrequencyProfile, population_size: int) -> float:
        d = profile.distinct
        r = profile.sample_size
        n = population_size
        if d >= r:
            return float(n)
        q = r / n
        log_one_minus_q = math.log1p(-q) if q < 1.0 else -math.inf

        def moment_gap(candidate: float) -> float:
            # n/candidate >= 0 and log(1-q) <= 0: the min-clamp is exact
            # and bounds the expm1 argument for the prover (R1303).
            expected = candidate * -math.expm1(min(0.0, n / candidate * log_one_minus_q))  # reprolint: disable=R101 - bracketing keeps candidate in [d, n], d >= 1
            return expected - d

        # E[d](D) is increasing in D; bracket between d (gap <= 0 there)
        # and n (gap >= 0 for any feasible d <= r).
        lo, hi = float(d), float(n)
        if moment_gap(hi) <= 0.0:
            return float(n)
        root = brentq(moment_gap, lo, hi, xtol=1e-9, rtol=1e-12)
        # brentq guarantees the root lies inside the [d, n] bracket;
        # restating it through clamp_estimate (an exact no-op here) makes
        # the bound clauses above machine-checkable.
        return clamp_estimate(root, d, n)


@requires("population_size >= 1")
@ensures("result >= 0.0")
def haas_stokes_cv_squared(
    profile: FrequencyProfile,
    population_size: int,
    distinct_estimate: float | None = None,
) -> float:
    """Finite-population estimate of the squared CV of class sizes.

    Derivation: for simple random sampling without replacement,
    ``E[sum_i i (i-1) f_i] = r (r-1) sum_j n_j (n_j - 1) / (n (n-1))``.
    Inverting for ``sum_j n_j^2`` and plugging into
    ``gamma^2 = (D / n^2) sum_j n_j^2 - 1`` gives

        ``gamma^2 = max(0, D_hat * [(n-1) M2 / (n r (r-1)) + 1/n] - 1)``

    with ``M2 = sum_i i (i-1) f_i`` and ``D_hat`` a plug-in estimate
    (default: the smoothed/unsmoothed first-order jackknife, as in
    Haas–Stokes).
    """
    r = profile.sample_size
    n = population_size
    if r < 2:
        return 0.0
    if distinct_estimate is None:
        distinct_estimate = SmoothedJackknife().estimate(profile, n).value
    if distinct_estimate < 0:
        raise InvalidParameterError(
            f"distinct_estimate must be non-negative, got {distinct_estimate}"
        )
    m2 = profile.factorial_moment(2)
    gamma_sq = distinct_estimate * ((n - 1) * m2 / (n * r * (r - 1)) + 1.0 / n) - 1.0
    return max(0.0, gamma_sq)


class UnsmoothedSecondOrderJackknife(DistinctValueEstimator):
    """Haas–Stokes second-order generalized jackknife (``uj2``).

    Extends the first-order form with a skew correction driven by the
    estimated squared CV of class sizes:

        ``D_hat = [d - f_1 (1-q) ln(1-q) gamma^2 / q]
                  / (1 - (1-q) f_1 / r)``.

    Since ``ln(1 - q) < 0`` the correction *raises* the estimate in
    proportion to the skew, counteracting the first-order form's
    high-skew underestimation.  The CV is estimated by
    :func:`haas_stokes_cv_squared` with the first-order estimate as
    plug-in.
    """

    name = "UJ2"

    @requires("profile.sample_size >= 1", "population_size >= 1")
    def _estimate_raw(
        self, profile: FrequencyProfile, population_size: int
    ) -> tuple[float, Mapping[str, object]]:
        r = profile.sample_size
        n = population_size
        q = r / n
        d = profile.distinct
        f1 = profile.f1
        gamma_sq = haas_stokes_cv_squared(profile, n)
        if q >= 1.0:
            return float(d), {"cv_squared": gamma_sq}
        skew_correction = f1 * (1.0 - q) * math.log1p(-q) * gamma_sq / q
        denominator = 1.0 - (1.0 - q) * f1 / r
        if denominator <= 0.0:
            # Same algebraic floor as SmoothedJackknife: denominator >= q,
            # so this is reachable only through rounding — saturate at n.
            return float(n), {"cv_squared": gamma_sq}
        return (d - skew_correction) / denominator, {"cv_squared": gamma_sq}


class DUJ2A(DistinctValueEstimator):
    """Haas–Stokes ``uj2a``: the stabilized second-order jackknife.

    ``uj2``'s CV correction is derived from a Taylor expansion that is
    accurate for rare values but badly extrapolated by very frequent
    ones.  ``uj2a`` therefore removes every class with more than
    ``cutoff`` occurrences *in the sample*, applies ``uj2`` to the
    remainder (with the row counts ``n`` and ``r`` reduced accordingly —
    the removed classes are assumed to occupy ``i / q`` population rows
    each), and finally adds the removed classes back:

        ``D_hat = |removed| + uj2(truncated profile; n', r')``

    with ``r' = r - sum_{i>c} i f_i`` and ``n' = n - (r - r') / q``
    (note ``r'/n' = q`` is preserved).  This is the estimator the PODS
    paper benchmarks as DUJ2A.

    Parameters
    ----------
    cutoff:
        Largest sample frequency retained in the jackknife part.
        Haas–Stokes recommend a moderate constant; 50 is our default.
    """

    name = "DUJ2A"

    def __init__(self, cutoff: int = 50) -> None:
        if cutoff < 1:
            raise InvalidParameterError(f"cutoff must be >= 1, got {cutoff}")
        self.cutoff = int(cutoff)

    @requires("profile.sample_size >= 1", "population_size >= 1")
    def _estimate_raw(
        self, profile: FrequencyProfile, population_size: int
    ) -> tuple[float, Mapping[str, object]]:
        r = profile.sample_size
        n = population_size
        q = r / n
        truncated = profile.truncate(self.cutoff)
        removed_distinct = profile.distinct - truncated.distinct
        removed_rows = r - truncated.sample_size
        details: dict[str, object] = {
            "removed_distinct": removed_distinct,
            "removed_sample_rows": removed_rows,
        }
        if truncated.sample_size == 0:
            # Every class was frequent; nothing left to extrapolate from.
            return float(removed_distinct or profile.distinct), details
        reduced_n = n - removed_rows / q
        reduced_n = max(reduced_n, float(truncated.sample_size))
        inner = UnsmoothedSecondOrderJackknife().estimate(
            truncated, int(round(reduced_n))
        )
        details["uj2_on_truncated"] = inner.value
        return removed_distinct + inner.value, details
