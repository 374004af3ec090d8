"""Shlosser's estimator and the Haas–Stokes modification.

Shlosser (1981) estimated "the size of the dictionary of a long text on
the basis of a sample" under Bernoulli sampling with rate ``q`` and the
skewness assumption ``E[f_1] / E[d] ~ f_1 / d``.  The resulting
estimator,

    ``D_hat = d + f_1 * sum_i (1-q)^i f_i / sum_i i q (1-q)^{i-1} f_i``,

is the high-skew branch of HYBSKEW (HNSS'95).  The PODS paper shows GEE
beats it on high-skew and real data, motivating HYBGEE.

Haas–Stokes (JASA 1998) derived a *modified* Shlosser estimator for
fixed-size sampling; it is the high-CV branch of their hybrid (our
HYBVAR).  The JASA formula is not restated in the PODS paper, so we
provide two reconstructions (DESIGN.md §3 records this substitution):

``mode="behavioral"`` (default)
    Reconstructed from the PODS paper's own diagnosis: the modified
    estimator "is unable to detect situations where data is duplicated,
    and therefore overestimates by a factor proportional to the number
    of copies of each distinct value" (Figure 9 discussion).  We model
    the blindness at its root.  A coverage-style estimator writes
    ``D = d + (number of unseen classes)`` and evaluates each class's
    probability of being missed from its size; the duplication-blind
    step is to take a class's *sample* count ``i`` at face value as its
    size (sound for a text dictionary, wrong for a ``c``-fold duplicated
    column whose classes are really ``i / q`` rows).  With the sample
    spectrum standing in for the population spectrum,

        ``P(class unseen) = sum_i f_i (1 - q)^i / d``,

    and solving ``D_hat = d + D_hat * P(unseen)`` gives

        ``D_hat = d^2 / (d - sum_i f_i (1 - q)^i)``.

    On singleton-heavy data this behaves like a reasonable high-skew
    estimator (it reduces to the exact ``d n / r`` scale-up when every
    sampled value is distinct), but when every class is fully seen (a
    duplicated column) the unseen-probability fails to vanish as fast
    as it should, and the estimate grows roughly linearly with ``n`` at
    a fixed sample size — exactly the reported pathology.

``mode="spectral"``
    The ``q^2`` form transcribed by later experimental surveys of
    distinct-value estimators:

        ``D_hat = d + f_1 * sum_i i q^2 (1-q^2)^{i-1} f_i
                      / sum_i (1-q)^i ((1+q)^i - 1) f_i``.

    This form is f1-gated and therefore does *not* exhibit the Figure 9
    pathology; it is retained for the ablation benchmarks.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.contracts import ensures, requires
from repro.core.base import DistinctValueEstimator
from repro.errors import InvalidParameterError
from repro.frequency.profile import FrequencyProfile

__all__ = ["Shlosser", "ModifiedShlosser", "shlosser_ratio"]


@ensures("result >= 0.0")
def shlosser_ratio(profile: FrequencyProfile, q: float) -> float:
    """Shlosser's correction ``sum (1-q)^i f_i / sum i q (1-q)^{i-1} f_i``.

    Each term is computed in log space so very frequent values (large
    ``i``) underflow to zero instead of overflowing.  Returns 0.0 when
    the denominator vanishes (exhaustive sampling, ``q = 1``).
    """
    if not 0.0 < q <= 1.0:
        raise InvalidParameterError(f"sampling fraction must be in (0, 1], got {q}")
    if q >= 1.0:
        return 0.0
    log_one_minus_q = math.log1p(-q)
    numerator = 0.0
    denominator = 0.0
    for i, count in profile.counts.items():
        # i >= 1 and log(1-q) <= 0, so the min-clamps are exact no-ops
        # that bound the exp arguments away from overflow (R1303).
        numerator += math.exp(min(0.0, i * log_one_minus_q)) * count
        denominator += (
            i * q * math.exp(min(0.0, (i - 1) * log_one_minus_q)) * count
        )
    if denominator <= 0.0:
        return 0.0
    return numerator / denominator


class Shlosser(DistinctValueEstimator):
    """Shlosser's 1981 estimator, the high-skew branch of HYBSKEW."""

    name = "Shlosser"

    @requires(
        "profile.sample_size >= 1",
        "population_size >= 1",
        "profile.distinct >= 0",
        "profile.f1 >= 0",
    )
    @ensures("result >= profile.distinct")
    def _estimate_raw(self, profile: FrequencyProfile, population_size: int) -> float:
        q = min(profile.sample_size / population_size, 1.0)
        return profile.distinct + profile.f1 * shlosser_ratio(profile, q)


class ModifiedShlosser(DistinctValueEstimator):
    """Haas–Stokes' modified Shlosser estimator (HYBVAR's high-CV branch).

    See the module docstring for the two reconstruction modes and the
    rationale; ``mode="behavioral"`` reproduces the duplication
    pathology the PODS paper reports in Figures 9–10.
    """

    name = "ModShlosser"

    def __init__(self, mode: str = "behavioral") -> None:
        if mode not in ("behavioral", "spectral"):
            raise InvalidParameterError(
                f"mode must be 'behavioral' or 'spectral', got {mode!r}"
            )
        self.mode = mode
        if mode != "behavioral":
            self.name = f"ModShlosser({mode})"

    @requires("profile.sample_size >= 1", "population_size >= 1")
    def _estimate_raw(
        self, profile: FrequencyProfile, population_size: int
    ) -> tuple[float, Mapping[str, object]]:
        if self.mode == "behavioral":
            return self._estimate_behavioral(profile, population_size)
        return self._estimate_spectral(profile, population_size)

    def _estimate_behavioral(
        self, profile: FrequencyProfile, population_size: int
    ) -> tuple[float, Mapping[str, object]]:
        r = profile.sample_size
        d = profile.distinct
        q = min(r / population_size, 1.0)
        if q >= 1.0:
            return float(d), {"unseen_probability": 0.0}
        log_one_minus_q = math.log1p(-q)
        missed_mass = 0.0
        for i, count in profile.counts.items():
            # exact clamp: i >= 1 and log(1-q) <= 0 (R1303).
            missed_mass += math.exp(min(0.0, i * log_one_minus_q)) * count
        unseen_probability = missed_mass / d
        seen_mass = d - missed_mass
        details = {"unseen_probability": unseen_probability}
        if seen_mass <= 0.0:
            return float("inf"), details
        return d * d / seen_mass, details

    def _estimate_spectral(
        self, profile: FrequencyProfile, population_size: int
    ) -> tuple[float, Mapping[str, object]]:
        r = profile.sample_size
        q = min(r / population_size, 1.0)
        # The branch of q >= 1 (q <= 1 here), stated so that the interval
        # prover carries 1 - q > 0 to the log below.
        one_minus_q = 1.0 - q
        if one_minus_q <= 0.0:
            return float(profile.distinct), {"correction": 0.0}
        log_decay_sq = math.log(one_minus_q * (1.0 + q))
        log_decay = math.log1p(-q)
        log_growth = math.log1p(q)
        numerator = 0.0
        denominator = 0.0
        for i, count in profile.counts.items():
            numerator += (
                i * q * q * math.exp(min(0.0, (i - 1) * log_decay_sq)) * count
            )
            # (1-q)^i ((1+q)^i - 1), with expm1 keeping small-q precision
            # for small i*log(1+q).  For larger arguments expm1 would
            # overflow (it raises past ~710 even when the full product is
            # tiny), so switch to the cancellation-free difference form
            # (1-q^2)^i - (1-q)^i, whose exp arguments are <= 0.
            growth = i * log_growth
            if growth > 1.0:
                term = math.exp(min(0.0, i * log_decay_sq)) - math.exp(
                    min(0.0, i * log_decay)
                )
            else:
                term = math.exp(min(0.0, i * log_decay)) * math.expm1(
                    min(1.0, growth)
                )
            denominator += term * count
        if denominator <= 0.0:
            return float(profile.distinct), {"correction": 0.0}
        correction = numerator / denominator
        return profile.distinct + profile.f1 * correction, {"correction": correction}
