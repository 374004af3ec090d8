"""GEE — the Guaranteed-Error Estimator (paper §4).

For a sample of ``r`` rows from an ``n``-row column,

    ``D_hat = sqrt(n / r) * f_1 + sum_{i >= 2} f_i``

equivalently ``d + (sqrt(n/r) - 1) * f_1``.

Intuition (paper §4): values seen more than once are "high frequency" and
are counted once each.  The ``f_1`` singletons stand in for the low
frequency values: they represent at least ``f_1`` and at most
``(n/r) f_1`` distinct values of the population, and taking the geometric
mean ``sqrt(n/r) f_1`` of those extremes minimizes the worst-case *ratio*
error.  Theorem 2 proves the expected ratio error is ``O(sqrt(n/r))`` on
*every* input, matching the Theorem 1 lower bound within a constant
(about ``e``).

GEE also supplies the confidence interval ``[d, d - f1 + (n/r) f1]``
(see :mod:`repro.core.bounds`).
"""

from __future__ import annotations

import math

from repro.contracts import ensures, requires
from repro.core.base import ConfidenceInterval, DistinctValueEstimator
from repro.core.bounds import gee_interval
from repro.errors import InvalidParameterError
from repro.frequency.profile import FrequencyProfile

__all__ = ["GEE", "gee_estimate", "gee_coefficient"]


@ensures("result > 0.0")
def gee_coefficient(population_size: int, sample_size: int) -> float:
    """The GEE scale-up coefficient for singletons, ``sqrt(n / r)``."""
    if sample_size <= 0:
        raise InvalidParameterError(f"sample size must be positive, got {sample_size}")
    if population_size <= 0:
        raise InvalidParameterError(
            f"population size must be positive, got {population_size}"
        )
    return math.sqrt(population_size / sample_size)


class GEE(DistinctValueEstimator):
    """The Guaranteed-Error Estimator with its confidence interval.

    Parameters
    ----------
    exponent:
        Exponent ``a`` in the singleton coefficient ``(n/r)^a``.  The
        paper's estimator uses ``a = 0.5`` (the geometric mean of the
        two extreme bounds); other values are exposed only for the
        coefficient-ablation study and are **not** covered by the
        Theorem 2 guarantee.
    """

    name = "GEE"

    def __init__(self, exponent: float = 0.5) -> None:
        if not 0.0 <= exponent <= 1.0:
            raise InvalidParameterError(
                f"GEE exponent must lie in [0, 1], got {exponent}"
            )
        self.exponent = float(exponent)
        if not math.isclose(exponent, 0.5):
            self.name = f"GEE(a={exponent:g})"

    @requires(
        "profile.sample_size >= 1",
        "population_size >= 1",
        "profile.sample_size <= population_size",
        "profile.distinct >= 0",
        "profile.f1 >= 0",
    )
    @ensures("result >= profile.distinct")
    def _estimate_raw(self, profile: FrequencyProfile, population_size: int) -> float:
        r = profile.sample_size
        coefficient = (population_size / r) ** self.exponent
        return profile.distinct + (coefficient - 1.0) * profile.f1

    def _interval(
        self, profile: FrequencyProfile, population_size: int
    ) -> ConfidenceInterval:
        return gee_interval(profile, population_size)


def gee_estimate(profile: FrequencyProfile, population_size: int) -> float:
    """Functional form of GEE: the clamped estimate as a plain float."""
    return GEE().estimate(profile, population_size).value
