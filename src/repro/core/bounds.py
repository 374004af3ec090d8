"""The LOWER/UPPER bounds that accompany GEE-family estimates (paper §4).

Alongside the point estimate, GEE yields an interval that contains the
true number of distinct values with high probability:

* ``LOWER = d`` — the distinct values actually seen; always valid.
* ``UPPER = sum_{i>=2} f_i + (n/r) f_1`` — every singleton in the sample
  may represent up to ``n/r`` distinct values of the population.

The width of ``[LOWER, UPPER]`` quantifies the confidence in the
estimate; Tables 1 and 2 of the paper track how sharply it collapses as
the sampling fraction grows.
"""

from __future__ import annotations

from repro.core.base import ConfidenceInterval
from repro.errors import InvalidParameterError
from repro.frequency.profile import FrequencyProfile

__all__ = ["gee_lower_bound", "gee_upper_bound", "gee_interval"]


def gee_lower_bound(profile: FrequencyProfile) -> float:
    """``LOWER = d``: the number of distinct values observed in the sample."""
    return float(profile.distinct)


def gee_upper_bound(profile: FrequencyProfile, population_size: int) -> float:
    """``UPPER = sum_{i>=2} f_i + (n/r) f_1``, capped at ``n``.

    Raises
    ------
    InvalidParameterError
        If the sample is empty or ``population_size`` is not positive.
    """
    n = int(population_size)
    r = profile.sample_size
    if n <= 0:
        raise InvalidParameterError(f"population size must be positive, got {n}")
    if r == 0:
        raise InvalidParameterError("cannot bound distinct values from an empty sample")
    non_singletons = profile.distinct - profile.f1
    upper = non_singletons + (n / r) * profile.f1
    return float(min(upper, n))


def gee_interval(profile: FrequencyProfile, population_size: int) -> ConfidenceInterval:
    """The GEE confidence interval ``[LOWER, UPPER]``."""
    return ConfidenceInterval(
        lower=gee_lower_bound(profile),
        upper=gee_upper_bound(profile, population_size),
    )
