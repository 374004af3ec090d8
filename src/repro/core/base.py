"""Estimator framework: result types, sanity bounds, and the base class.

Section 2 of the paper fixes the contract every estimator obeys:

* the input is a random sample of ``r`` rows from a column of ``n`` rows,
  summarized by its frequency profile (``d`` and the ``f_i``);
* the output ``D_hat`` is clamped to the *sanity bounds* ``d <= D_hat <= n``;
* quality is measured by the *ratio error*
  ``max(D_hat / D, D / D_hat) >= 1``.

Estimators here are pure: they read only ``(profile, n)`` plus their own
configuration, never global state, and take no randomness of their own.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Mapping

from repro.contracts import ensures, requires
from repro.errors import InvalidParameterError
from repro.frequency.profile import FrequencyProfile
from repro.obs.recorder import OBS

__all__ = [
    "ConfidenceInterval",
    "Estimate",
    "DistinctValueEstimator",
    "clamp_estimate",
    "ratio_error",
    "relative_error",
]


@requires("sample_distinct >= 0", "sample_distinct <= population_size")
@ensures("result >= sample_distinct", "result <= population_size")
def clamp_estimate(raw: float, sample_distinct: int, population_size: int) -> float:
    """Apply the paper's sanity bounds: ``d <= D_hat <= n``.

    Non-finite or NaN raw values are mapped to the nearest bound
    (``n`` for ``+inf``, ``d`` otherwise), so downstream code always
    receives a usable number.
    """
    if math.isnan(raw):
        return float(sample_distinct)
    if raw == math.inf:
        return float(population_size)
    return float(min(max(raw, sample_distinct), population_size))


def ratio_error(estimate: float, true_distinct: float) -> float:
    """The paper's multiplicative error: ``max(D_hat/D, D/D_hat)``.

    Always ``>= 1``; equals 1 exactly when the estimate is perfect.
    """
    if true_distinct <= 0:
        raise InvalidParameterError(
            f"true distinct count must be positive, got {true_distinct}"
        )
    if estimate <= 0:
        raise InvalidParameterError(f"estimate must be positive, got {estimate}")
    if estimate >= true_distinct:
        return estimate / true_distinct
    return true_distinct / estimate


def relative_error(estimate: float, true_distinct: float) -> float:
    """The conventional signed relative error ``(D_hat - D) / D``.

    Included for comparability with Haas et al. (1995); the paper argues
    the ratio error is the better-behaved measure.
    """
    if true_distinct <= 0:
        raise InvalidParameterError(
            f"true distinct count must be positive, got {true_distinct}"
        )
    return (estimate - true_distinct) / true_distinct


@dataclass(frozen=True)
class ConfidenceInterval:
    """An interval claimed to contain the true number of distinct values.

    GEE's interval is ``[d, d - f1 + (n/r) f1]`` (paper §4); AE inherits
    the same construction.
    """

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise InvalidParameterError(
                f"interval lower bound {self.lower} exceeds upper bound {self.upper}"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        """True when ``value`` lies inside the interval (inclusive)."""
        return self.lower <= value <= self.upper


@dataclass(frozen=True)
class Estimate:
    """A distinct-values estimate together with its provenance.

    Attributes
    ----------
    value:
        The final estimate after sanity bounds.
    raw_value:
        The estimator's output before clamping (useful for diagnosing
        over/under-shoot).
    estimator:
        Name of the estimator that produced this value.
    sample_size, population_size:
        ``r`` and ``n``.
    sample_distinct:
        ``d``, the number of distinct values actually observed.
    interval:
        Optional confidence interval (GEE-family estimators provide one).
    details:
        Estimator-specific diagnostics, e.g. which branch a hybrid chose.
    """

    value: float
    raw_value: float
    estimator: str
    sample_size: int
    population_size: int
    sample_distinct: int
    interval: ConfidenceInterval | None = None
    details: Mapping[str, object] = field(default_factory=dict)

    def ratio_error(self, true_distinct: float) -> float:
        """Ratio error of this estimate against the ground truth."""
        return ratio_error(self.value, true_distinct)

    def relative_error(self, true_distinct: float) -> float:
        """Signed relative error of this estimate against the ground truth."""
        return relative_error(self.value, true_distinct)


class DistinctValueEstimator(ABC):
    """Base class for all distinct-values estimators.

    Subclasses implement :meth:`_estimate_raw`, returning the unclamped
    estimate (optionally with a diagnostics mapping); :meth:`estimate`
    validates inputs, applies the sanity bounds, and wraps everything in
    an :class:`Estimate`.
    """

    #: Short stable identifier, e.g. ``"GEE"``; used by the registry,
    #: experiment reports, and figures.
    name: str = "base"

    # The paper's sanity bounds, §2: d <= D_hat <= n.  (Preconditions are
    # enforced by the explicit validation below — it must keep raising
    # InvalidParameterError, so they are not @requires clauses.)
    @ensures(
        "result.value >= profile.distinct",
        "result.value <= population_size",
    )
    def estimate(self, profile: FrequencyProfile, population_size: int) -> Estimate:
        """Estimate the number of distinct values in a column of ``population_size`` rows."""
        # Telemetry: every invocation is counted and its wall time
        # accumulated per estimator name (one attribute check when off).
        # No per-call span — a sweep makes hundreds of thousands of
        # estimates; the enclosing ``harness.estimate`` span carries the
        # tree attribution instead.
        started = time.perf_counter() if OBS.enabled else 0.0
        n = int(population_size)
        d = profile.distinct
        r = profile.sample_size
        if n <= 0:
            raise InvalidParameterError(f"population size must be positive, got {n}")
        if r == 0:
            raise InvalidParameterError("cannot estimate from an empty sample")
        if d > n:
            raise InvalidParameterError(
                f"sample has {d} distinct values but the population only {n} rows"
            )
        if profile.max_frequency > n:
            raise InvalidParameterError(
                f"a sample value occurs {profile.max_frequency} times but the "
                f"population only has {n} rows"
            )
        outcome = self._estimate_raw(profile, n)
        # Single-assignment bindings (no re-bound branch locals): the
        # static prover chases one definition per name when discharging
        # the sanity-bound clauses below.
        raw = float(outcome[0]) if isinstance(outcome, tuple) else float(outcome)
        details = outcome[1] if isinstance(outcome, tuple) else {}
        result = Estimate(
            value=clamp_estimate(raw, d, n),
            raw_value=float(raw),
            estimator=self.name,
            sample_size=r,
            population_size=n,
            sample_distinct=d,
            interval=self._interval(profile, n),
            details=details,
        )
        if OBS.enabled:
            elapsed = time.perf_counter() - started
            OBS.add(f"estimator.calls.{self.name}")
            OBS.add(f"estimator.seconds.{self.name}", elapsed)
            OBS.observe(f"estimator.seconds.{self.name}", elapsed)
            # Hybrids (HYBSKEW, HYBGEE, HYBVAR) name the estimator they chose.
            branch = details.get("branch")
            if branch is not None:
                OBS.add(f"estimator.branch.{self.name}.{branch}")
        return result

    def estimate_batch(
        self, profiles: Iterable[FrequencyProfile], population_size: int
    ) -> list[Estimate]:
        """:meth:`estimate` of every profile, in order."""
        # Kept apart from estimate() because the benchmark's traced pass
        # (bench/tracer.py) wraps it to time each estimator per sweep point.
        return [self.estimate(profile, population_size) for profile in profiles]

    @abstractmethod
    def _estimate_raw(
        self, profile: FrequencyProfile, population_size: int
    ) -> float | tuple[float, Mapping[str, object]]:
        """Return the unclamped estimate, optionally with diagnostics."""

    def _interval(
        self, profile: FrequencyProfile, population_size: int
    ) -> ConfidenceInterval | None:
        """Hook for estimators that provide a confidence interval."""
        return None

    def __call__(self, profile: FrequencyProfile, population_size: int) -> float:
        """Shorthand returning just the clamped numeric estimate."""
        return self.estimate(profile, population_size).value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
