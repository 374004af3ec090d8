"""AE — the Adaptive Estimator (paper §5.2–5.3).

AE keeps GEE's generalized-jackknife form ``D_hat = d + K f_1`` but picks
the singleton coefficient ``K`` from the sample itself instead of fixing
it at ``sqrt(n/r) - 1``.  The derivation (paper §5.3):

1. Unbiasedness ``E[D_hat] = D`` forces
   ``K = sum_i (1 - p_i)^r / sum_i r p_i (1 - p_i)^{r-1}``.
2. Values with sample frequency ``i >= 3`` are treated as high-frequency
   with ``p = i / r``.
3. The ``f_1 + f_2`` rare representatives stand for ``m`` low-frequency
   values that together occupy a fraction ``(f_1 + 2 f_2) / r`` of the
   column, each with equal probability ``p = (f_1 + 2 f_2) / (r m)``.
4. Since ``D = d - f_1 - f_2 + m`` must also equal ``d + K f_1``, one
   obtains a fixed-point equation in ``m``:

   ``m - f1 - f2 = f1 * (A(m)) / (B(m))``

   with, writing ``g = f1 + 2 f2``,

   * exact form:
     ``A = sum_{i>=3} (1 - i/r)^r f_i + m (1 - g/(r m))^r`` and
     ``B = sum_{i>=3} i (1 - i/r)^{r-1} f_i + g (1 - g/(r m))^{r-1}``;
   * exponential approximation (``(1 - i/r)^r ~ e^{-i}``):
     ``A = sum_{i>=3} e^{-i} f_i + m e^{-g/m}`` and
     ``B = sum_{i>=3} i e^{-i} f_i + g e^{-g/m}``.

5. The root ``m*`` gives ``D_hat = d + m* - f1 - f2``, clamped to
   ``[d, n]`` as always.

Degenerate cases, resolved exactly as the algebra dictates:

* ``f1 = 0``: the equation reduces to ``m = f2`` and ``D_hat = d`` — with
  no singletons the sample has seen everything it can reason about.
* profiles whose non-singleton evidence vanishes (``f2 = 0`` and no
  moderate frequencies, so ``B ~ 0``): the fixed point escapes to
  infinity because the equation's two sides grow at the same rate.
  This is precisely the "heavy head plus pure singleton tail" profile
  of Theorem 1's Scenario B — the provably indistinguishable case — so
  AE falls back to GEE's own device for it, the geometric mean:
  ``m = f1 * sqrt(n/r) + (rare_distinct - f1)``.  An all-singleton
  sample is the extreme instance and yields GEE's ``sqrt(n/r) * r``.

Two structural sanity bounds from the model itself are always applied
to the solved ``m``: the rare classes each occupy at least one row of
the ``(g / r) n`` rows the rare mass scales up to (``p >= 1/n`` implies
``m <= g n / r``), and ``m`` is at least the number of rare classes
actually observed.

AE inherits GEE's confidence interval ``[d, d - f1 + (n/r) f1]``
(paper §5.2: "a confidence interval can be provided for AE in exactly
the same manner as for GEE").
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

from repro.contracts import requires
from repro.core.base import ConfidenceInterval, DistinctValueEstimator
from repro.core.bounds import gee_interval
from repro.core.roots import brentq
from repro.errors import InvalidParameterError
from repro.frequency.profile import FrequencyProfile

__all__ = ["AE", "ae_estimate", "solve_low_frequency_count"]

#: Multiple of ``n`` at which the bracket search gives up and treats the
#: fixed point as infinite (the estimate is clamped to ``n`` anyway).
_BRACKET_CAP_FACTOR = 16.0


def _high_frequency_sums_exact(
    profile: FrequencyProfile, rare_cutoff: int
) -> tuple[float, float]:
    """``(A0, B0)`` sums over ``i > rare_cutoff`` with the exact ``(1 - i/r)`` terms."""
    r = profile.sample_size
    a0 = 0.0
    b0 = 0.0
    for i, count in profile.counts.items():
        if i <= rare_cutoff or i >= r:
            continue
        base = 1.0 - i / r
        a0 += (base**r) * count
        b0 += i * (base ** (r - 1)) * count
    return a0, b0


def _high_frequency_sums_approx(
    profile: FrequencyProfile, rare_cutoff: int
) -> tuple[float, float]:
    """``(A0, B0)`` sums over ``i > rare_cutoff`` with ``(1 - i/r)^r ~ e^{-i}``."""
    a0 = 0.0
    b0 = 0.0
    for i, count in profile.counts.items():
        if i <= rare_cutoff:
            continue
        # i >= 1 (frequencies), so the clamp is exact; it bounds the
        # exp argument for the prover (R1303).
        weight = math.exp(min(0.0, -float(i)))
        a0 += weight * count
        b0 += i * weight * count
    return a0, b0


def _fixed_point_residual_approx(
    m: float, f1: int, rare_distinct: int, rare_rows: int, a0: float, b0: float
) -> float:
    """Residual of the exponential-approximation fixed-point equation at ``m``."""
    if m <= 0.0:
        # Below the domain: move the bracket right.
        return -math.inf
    rare_tail = math.exp(-rare_rows / m)
    numerator = a0 + m * rare_tail
    denominator = b0 + rare_rows * rare_tail
    if denominator <= 0.0:
        # exp underflow with an empty high-frequency tail (b0 == 0): the
        # fixed-point term blows up, so the residual is -inf.
        return -math.inf
    return (m - rare_distinct) - f1 * numerator / denominator


def _fixed_point_residual_exact(
    m: float,
    f1: int,
    rare_distinct: int,
    rare_rows: int,
    a0: float,
    b0: float,
    r: int,
) -> float:
    """Residual of the exact fixed-point equation at ``m`` (requires ``m > g/r``)."""
    if m <= 0.0 or r < 1:
        return -math.inf
    base = 1.0 - rare_rows / (r * m)
    if base <= 0.0:
        # Below the algebraic domain; treat as strongly negative so the
        # bracketing logic moves right.
        return -float("inf")
    tail_r = base**r
    tail_r1 = base ** (r - 1)
    numerator = a0 + m * tail_r
    denominator = b0 + rare_rows * tail_r1
    if denominator <= 0.0:
        # Power underflow with an empty high-frequency tail (b0 == 0):
        # the fixed-point term blows up, so the residual is -inf.
        return -math.inf
    return (m - rare_distinct) - f1 * numerator / denominator


def solve_low_frequency_count(
    profile: FrequencyProfile,
    *,
    method: str = "approx",
    rare_cutoff: int = 2,
    population_size: int | None = None,
) -> float:
    """Solve the AE fixed-point equation for ``m``, the rare-value count.

    Parameters
    ----------
    profile:
        The sample's frequency profile.
    method:
        ``"approx"`` (the paper's exponential approximation, default) or
        ``"exact"`` (the full ``(1 - i/r)`` form).
    rare_cutoff:
        Largest sample frequency treated as "rare".  The paper uses 2
        (``f_1`` and ``f_2`` represent the rare values); other values are
        exposed for the ablation study.
    population_size:
        When given, enables the structural sanity bounds (the
        ``m <= g n / r`` cap and the geometric-mean fallback for
        rootless profiles); without it, rootless profiles return
        ``inf`` and the caller applies its own clamp.

    Returns
    -------
    float
        The (bounded) root ``m*``; ``inf`` only when the equation has no
        finite root and ``population_size`` was not supplied.
    """
    if method not in ("approx", "exact"):
        raise InvalidParameterError(
            f"method must be 'approx' or 'exact', got {method!r}"
        )
    if rare_cutoff < 1:
        raise InvalidParameterError(f"rare_cutoff must be >= 1, got {rare_cutoff}")
    r = profile.sample_size
    f1 = profile.f1
    rare_distinct = sum(
        profile.f(i) for i in range(1, rare_cutoff + 1)
    )  # f1 + ... + f_cutoff
    rare_rows = sum(i * profile.f(i) for i in range(1, rare_cutoff + 1))
    if f1 == 0 or rare_rows == 0:
        # Equation reduces to m = (rare_distinct - f1 term) -> m = rare_distinct.
        return float(rare_distinct)

    if method == "approx":
        a0, b0 = _high_frequency_sums_approx(profile, rare_cutoff)

        def residual(m: float) -> float:
            return _fixed_point_residual_approx(
                m, f1, rare_distinct, rare_rows, a0, b0
            )

        lo = float(rare_distinct)
    else:
        a0, b0 = _high_frequency_sums_exact(profile, rare_cutoff)

        def residual(m: float) -> float:
            return _fixed_point_residual_exact(
                m, f1, rare_distinct, rare_rows, a0, b0, r
            )

        lo = max(float(rare_distinct), rare_rows / r + 1e-12)

    m = _bracket_and_solve(
        residual, lo, population_size=population_size, sample_size=r
    )
    if population_size is None:
        return m
    if math.isinf(m):
        # Rootless profile: Theorem 1's indistinguishable shape.  Use
        # GEE's geometric-mean scale-up for the singletons.
        m = f1 * math.sqrt(population_size / r) + (rare_distinct - f1)
    # Structural bounds: at least the rare classes seen, at most one
    # class per population row of the rare mass.
    cap = max(float(rare_distinct), rare_rows * population_size / r)
    return min(max(m, float(rare_distinct)), cap)


def _bracket_and_solve(
    residual: Callable[[float], float],
    lo: float,
    *,
    population_size: int | None,
    sample_size: int,
) -> float:
    """Bracket the root of ``residual`` above ``lo`` and solve with Brent.

    ``residual(lo) <= 0`` by construction (at ``m = rare_distinct`` the
    left side vanishes and the right side is non-negative); the residual
    grows roughly linearly for large ``m`` whenever a finite fixed point
    exists.  A solver failure surfaces as the
    :class:`~repro.errors.SolverError` :func:`~repro.core.roots.brentq`
    raises.
    """
    value_lo = residual(lo)
    if value_lo >= 0.0:
        # Zero residual means lo already is the root; a positive one can
        # only happen through floating-point noise at the boundary, where
        # the root is numerically indistinguishable from lo.
        return lo
    if population_size is not None:
        cap = _BRACKET_CAP_FACTOR * max(float(population_size), lo + 1.0)
    else:
        cap = _BRACKET_CAP_FACTOR * max(1e6, 1000.0 * (lo + sample_size + 1.0))
    hi = max(2.0 * lo, lo + 1.0)
    while hi <= cap:
        if residual(hi) > 0.0:
            return brentq(residual, lo, hi, xtol=1e-9, rtol=1e-12)
        lo, hi = hi, hi * 2.0
    return float("inf")


class AE(DistinctValueEstimator):
    """The Adaptive Estimator with GEE-style confidence interval.

    Parameters
    ----------
    method:
        ``"approx"`` for the paper's exponential approximation (default)
        or ``"exact"`` for the full ``(1 - i/r)`` fixed point.
    rare_cutoff:
        Largest sample frequency treated as rare (paper: 2).  Exposed
        for the ablation benchmark only.
    """

    name = "AE"

    def __init__(self, method: str = "approx", rare_cutoff: int = 2) -> None:
        if method not in ("approx", "exact"):
            raise InvalidParameterError(
                f"method must be 'approx' or 'exact', got {method!r}"
            )
        if rare_cutoff < 1:
            raise InvalidParameterError(f"rare_cutoff must be >= 1, got {rare_cutoff}")
        self.method = method
        self.rare_cutoff = int(rare_cutoff)
        if method != "approx" or rare_cutoff != 2:
            self.name = f"AE({method},c={rare_cutoff})"

    @requires("profile.sample_size >= 1", "population_size >= 1")
    def _estimate_raw(
        self, profile: FrequencyProfile, population_size: int
    ) -> tuple[float, Mapping[str, object]]:
        m = solve_low_frequency_count(
            profile,
            method=self.method,
            rare_cutoff=self.rare_cutoff,
            population_size=population_size,
        )
        rare_distinct = sum(profile.f(i) for i in range(1, self.rare_cutoff + 1))
        if math.isinf(m):
            return float("inf"), {"m": m, "rare_distinct": rare_distinct}
        estimate = profile.distinct + m - rare_distinct
        return estimate, {"m": m, "rare_distinct": rare_distinct}

    def _interval(
        self, profile: FrequencyProfile, population_size: int
    ) -> ConfidenceInterval:
        return gee_interval(profile, population_size)


def ae_estimate(profile: FrequencyProfile, population_size: int) -> float:
    """Functional form of AE: the clamped estimate as a plain float."""
    return AE().estimate(profile, population_size).value
