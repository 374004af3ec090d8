"""The chi-squared skew test used by the HYBSKEW hybrid estimator.

Haas, Naughton, Seshadri and Stokes (VLDB 1995) select between the
smoothed jackknife (low skew) and Shlosser's estimator (high skew) by
running "the standard chi-squared test on the random sample to
probabilistically estimate whether the data has high skew or low skew"
(Section 5 of the PODS paper).

The test: under the null hypothesis that the ``d`` observed classes have
equal population frequencies, the vector of within-sample class counts
``(c_1, ..., c_d)`` is approximately multinomial-uniform, so

    u = sum_j (c_j - r/d)^2 / (r/d)

is approximately chi-squared with ``d - 1`` degrees of freedom.  We reject
uniformity (declare *high skew*) when ``u`` exceeds the upper ``alpha``
critical value.

Because ``sum_j c_j^2 = sum_i i^2 f_i``, the statistic is computable from
the frequency profile alone — exactly the information the paper's modified
SQL Server returned.

The chi-squared distribution is computed here.  With ``a = dof / 2`` and
``y = x / 2`` its upper tail is the regularized incomplete gamma function
``Q(a, y)``, and ``a`` is an integer or a half-integer:

* for ``dof <= 40`` (and ``y <= 700``) the tail is a finite sum of
  positive terms: Poisson terms for even ``dof``, ``erfc(sqrt(y))`` plus
  terms for odd ``dof``;
* above that it is Legendre's continued fraction, or ``1 - P(a, y)`` by
  its power series when ``y < a + 1``.  Their common factor
  ``y^a e^-y / Gamma(a)`` is, for ``a >= 10``,
  ``exp(a log1pmx((y - a) / a) + ln(a / 2 pi) / 2 - Stirling tail)``,
  with ``log1pmx(t) = log1p(t) - t`` summed as a series, so nothing
  cancels (below 10 it comes straight from ``lgamma``).  Lentz's
  forward recursion finds the depth at which the fraction converges;
  walking it back from there gives the value to a few ulps.

The critical value takes Halley steps from the Wilson–Hilferty start on
the tail ``1 - (1 - alpha)``, the one scipy's ``chi2.ppf(1 - alpha)``
inverts.  The first step takes the fraction from Lentz's product and
the next walks it back, so each evaluation walks it once.  For
``alpha <= 0.2`` the critical value is within 1 ulp of the exact
quantile of that tail (``tests/frequency/test_skew.py`` checks 1,660
``(dof, alpha)`` points against 50-digit mpmath values, where scipy is
up to 28 ulps off); near the median (``alpha = 0.5``) it can be 2 ulps
off.  The tail has a relative error below 1e-12.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from repro.contracts import requires
from repro.errors import InvalidParameterError, SolverError
from repro.frequency.profile import FrequencyProfile

__all__ = [
    "SkewTestResult",
    "chi_squared_critical_value",
    "chi_squared_p_value",
    "chi_squared_skew_test",
    "is_high_skew",
]

#: Largest ``dof`` whose tail is the finite sum.
_SUM_MAX_DOF = 40
#: Largest ``y`` the finite sum takes: ``exp(-y)`` is a normal double below it.
_SUM_MAX_Y = 700.0
#: Unit roundoff, the stopping rule of every series and fraction below.
_EPS = 2.0**-53
_ONE_MINUS_EPS = 1.0 - _EPS
#: Halley steps allowed before the quantile search gives up.
_MAX_STEPS = 64
_SQRT_PI = math.sqrt(math.pi)
_LOG_2PI = math.log(2.0 * math.pi)
#: Coefficients of ``a^-1, a^-3, ...`` in Stirling's series for ``lgamma(a)``.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


@dataclass(frozen=True)
class SkewTestResult:
    """Outcome of the chi-squared uniformity test on a sample."""

    statistic: float
    degrees_of_freedom: int
    critical_value: float
    high_skew: bool

    @property
    def p_value(self) -> float:
        """``P(X > statistic)``, computed when read: no decision needs it."""
        return chi_squared_p_value(self.statistic, self.degrees_of_freedom)


@requires("a >= 10")
def _stirling_tail(a: float) -> float:
    """``lgamma(a) - ((a - 1/2) ln a - a + ln(2 pi) / 2)``, for ``a >= 10``."""
    inverse_square = 1.0 / (a * a)
    total = 0.0
    for coefficient in reversed(_STIRLING):
        total = total * inverse_square + coefficient
    return total / a


@requires("a > 0", "y > 0")
def _gamma_factor(a: float, y: float) -> float:
    """``y^a e^-y / Gamma(a)``, the factor both tails share."""
    if a < 10.0:
        log_factor = a * math.log(y) - y - math.lgamma(a)
    else:
        # a ln(y / a) - (y - a) = a log1pmx(t), t = d / a; with u = d / (y + a),
        # log1p(t) = 2 atanh(u) = 2 (u + u^3/3 + ...) and t - 2u = u t.
        d = y - a
        u = d / (y + a)
        if -1 / 3 < u < 0.5:
            u2 = u * u
            series = 0.0
            power_of_u = u2
            odd = 3.0
            while True:
                term = power_of_u / odd
                series += term
                if term <= series * _EPS:
                    break
                power_of_u *= u2
                odd += 2.0
            a_log1pmx = 2.0 * a * u * series - d * u
        else:
            a_log1pmx = a * (math.log1p(d / a) - d / a)
        log_factor = a_log1pmx + 0.5 * (math.log(a) - _LOG_2PI) - _stirling_tail(a)
    return math.exp(min(log_factor, 700.0))


def _exact_square_residual(root: float, y: float) -> float:
    """``y - root * root`` without rounding the square (Dekker's product)."""
    split = 134217729.0 * root  # 2^27 + 1
    high = split - (split - root)
    low = root - high
    square = root * root
    return (y - square) - (((high * high - square) + 2.0 * high * low) + low * low)


@requires("dof >= 1", "y > 0")
def _finite_sum(dof: int, y: float) -> tuple[float, float]:
    """``Q(dof / 2, y)`` and the density at ``y`` for small ``dof``.

    Each term is the one before times ``y / order``; the last is the
    Gamma(``dof / 2``) density at ``y``.
    """
    term = math.exp(-y)
    if dof % 2 == 0:
        total = term
        order = 1.0
        steps = dof // 2 - 1
    else:
        root = math.sqrt(y)
        term /= _SQRT_PI * root
        # erfc at the exact root: erfc(root + e) ~ erfc(root) - 2 root e * term,
        # and 2 root e is the residual of the rounded root's square.
        total = math.erfc(root) - _exact_square_residual(root, y) * term
        order = 0.5
        steps = dof // 2
    for _ in range(steps):
        term = term * y / order
        total += term
        order += 1.0
    return total, term


@requires("a > 0", "y > 0")
def _lower_series(a: float, y: float) -> float:
    """``P(a, y) / factor``: ``sum_n y^n / (a (a + 1) ... (a + n))``."""
    term = 1.0 / a
    total = term
    denominator = a
    while term > total * _EPS:
        denominator += 1.0
        term *= y / denominator
        total += term
    return total


@requires("a > 0")
def _lentz_fraction(a: float, y: float) -> tuple[float, int]:
    """``Q(a, y) / factor`` by Lentz's forward recursion, and its depth.

    The fraction is ``1 / (y + 1 - a - 1 (1 - a) / (y + 3 - a - ...))``;
    the depth is the level at which it has converged.  The running
    product gains up to an ulp at every level, so this value is rough:
    ``_walked_back_fraction`` is the exact one.  Every denominator is
    positive for ``y >= a + 1``; the guards turn a breach of that into
    an error instead of a wrong tail.
    """
    first = y + 1.0 - a
    if first < 2.0:
        raise InvalidParameterError(f"the fraction needs y >= a + 1, got a={a}, y={y}")
    b = first
    c = math.inf
    d = 1.0 / first
    value = d
    level = 0.0
    while True:
        level += 1.0
        numerator = level * (a - level)
        b += 2.0
        c = b + numerator / c
        d = b + numerator * d
        if c <= 0.0 or d <= 0.0:
            raise SolverError(f"Legendre fraction lost positivity at a={a}, y={y}")
        d = 1.0 / d
        ratio = c * d
        value *= ratio
        # |ratio - 1| <= 2^-53: no double lies in (1, 1 + 2^-52).
        if _ONE_MINUS_EPS <= ratio <= 1.0:
            return value, int(level)


@requires("a > 0", "depth >= 1")
def _walked_back_fraction(a: float, y: float, depth: int) -> float:
    """``Q(a, y) / factor``, Legendre's fraction evaluated backward from ``depth``.

    From a depth at or past convergence the error stays at a few ulps.
    """
    first = y + 1.0 - a
    if first < 2.0:
        raise InvalidParameterError(f"the fraction needs y >= a + 1, got a={a}, y={y}")
    # Stepping the denominators down by 2 from the deepest is exact.
    b = first + 2.0 * depth
    level = float(depth)
    tail = 0.0
    while level > 0.0:
        denominator = b + tail
        if denominator <= 0.0:
            raise SolverError(f"Legendre fraction lost positivity at a={a}, y={y}")
        tail = level * (a - level) / denominator
        b -= 2.0
        level -= 1.0
    denominator = first + tail
    if denominator <= 0.0:
        raise SolverError(f"Legendre fraction lost positivity at a={a}, y={y}")
    return 1.0 / denominator


@requires("dof >= 1", "y > 0", "depth >= 0")
def _upper_tail(dof: int, y: float, depth: int = 0) -> tuple[float, float, int]:
    """``Q(dof / 2, y)``, the Gamma(``dof / 2``) density at ``y``, and a depth.

    Where the tail is Legendre's fraction, a ``depth`` of 0 takes it
    from Lentz's recursion, rough, and returns the depth at which that
    converged plus a quarter and 4 levels; given a depth, the fraction
    is walked back from it.  Lentz's recursion stops where rounding
    noise first meets the unit roundoff, which on a slowly converging
    fraction moves by tens of levels between nearby points; the margin
    makes the returned depth good for any point near ``y``.  The
    returned depth is 0 wherever the tail is exact.
    """
    if dof <= _SUM_MAX_DOF and y <= _SUM_MAX_Y:
        total, density = _finite_sum(dof, y)
        return total, density, 0
    a = 0.5 * dof
    factor = _gamma_factor(a, y)
    if y < a + 1.0:
        return 1.0 - factor * _lower_series(a, y), factor / y, 0
    if depth >= 1:
        return factor * _walked_back_fraction(a, y, depth), factor / y, depth
    rough, converged = _lentz_fraction(a, y)
    return factor * rough, factor / y, converged + converged // 4 + 4


@requires("dof >= 1", "y > 0")
def _exact_upper_tail(dof: int, y: float) -> tuple[float, float]:
    """``Q(dof / 2, y)`` and the Gamma(``dof / 2``) density at ``y``, exact."""
    upper, density, depth = _upper_tail(dof, y)
    if depth >= 1:
        upper = _upper_tail(dof, y, depth)[0]
    return upper, density


@requires("dof >= 1", "y > 0")
def _lower_tail(dof: int, y: float) -> tuple[float, float]:
    """``P(dof / 2, y)`` and the Gamma(``dof / 2``) density at ``y``."""
    a = 0.5 * dof
    if y < a + 1.0:
        factor = _gamma_factor(a, y)
        return factor * _lower_series(a, y), factor / y
    upper, density = _exact_upper_tail(dof, y)
    return 1.0 - upper, density


@requires("p > 0", "p <= 0.5")
def _normal_quantile(p: float) -> float:
    """Upper ``p`` quantile of the standard normal to ~4.5e-4.

    Abramowitz and Stegun 26.2.23; a start for the Halley steps only.
    """
    t = math.sqrt(2.0 * math.log(1.0 / p))
    return t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )


@requires("dof >= 1", "target > 0", "target <= 0.5")
def _gamma_quantile(dof: int, target: float, lower: bool) -> float:
    """The ``y`` at which ``P(dof / 2, y)`` (``lower``) or ``Q`` is ``target``.

    Halley steps from the Wilson–Hilferty start.  The first step starts
    up to ~1e-2 off the root, where a rough tail serves as well as the
    exact one: it takes Legendre's fraction from Lentz's product, and
    later steps walk the fraction back from the depth found there.  An
    iterate is returned only from an exact tail.
    """
    a = 0.5 * dof
    z = -_normal_quantile(target) if lower else _normal_quantile(target)
    w = 2.0 / (9.0 * dof)
    cube_root = 1.0 - w + z * math.sqrt(w)
    if cube_root > 0.0:
        y = a * cube_root**3
    else:
        # P(a, y) ~ y^a / Gamma(a + 1) near zero.
        y = math.exp(min(700.0, (math.log(target) + math.lgamma(a + 1.0)) / a))
    depth = 0
    for _ in range(_MAX_STEPS):
        if lower:
            tail, density = _lower_tail(dof, y)
            residual = target - tail
            exact = True
        else:
            tail, density, found = _upper_tail(dof, y, depth)
            residual = tail - target
            # Rough only where Lentz's product stood in for the fraction.
            exact = depth >= 1 or found == 0
            depth = found
        if density <= 0.0:
            raise SolverError(f"chi-squared density vanished at dof={dof}, x={2.0 * y}")
        newton = residual / density
        # Halley's correction, unless far from the root it would more
        # than double the Newton step or turn it round.
        halley = 1.0 + 0.5 * newton * ((a - 1.0) / y - 1.0)
        step = newton
        if halley > 0.5:
            step = newton / halley
        moved = y + step
        if moved <= 0.0:
            y *= 0.5
            depth = 0
            continue
        y = moved
        if exact and abs(step) <= 1e-11 * y:
            return y
        if abs(step) > 1e-2 * y:
            depth = 0  # too far from where the depth was found
    raise SolverError(
        f"chi-squared quantile did not converge: dof={dof}, tail={target}"
    )


@functools.lru_cache(maxsize=4096)
def chi_squared_critical_value(dof: int, alpha: float) -> float:
    """The upper-``alpha`` quantile of chi-squared with ``dof`` degrees of freedom.

    Inverts the tail ``1 - (1 - alpha)``, as scipy's
    ``chi2.ppf(1 - alpha, dof)`` does, to within 1 ulp of the exact
    quantile for ``alpha <= 0.2``.  Memoized per ``(dof, alpha)``.
    """
    if dof < 1:
        raise InvalidParameterError(f"degrees of freedom must be >= 1, got {dof}")
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must be in (0, 1), got {alpha}")
    upper = 1.0 - (1.0 - alpha)
    if upper <= 0.0:
        return math.inf
    if upper > 0.5:
        # Invert the smaller tail: 1 - upper is exact here, and P(a, y)
        # carries no cancellation.
        return 2.0 * _gamma_quantile(dof, 1.0 - upper, lower=True)
    return 2.0 * _gamma_quantile(dof, upper, lower=False)


def chi_squared_p_value(statistic: float, dof: int) -> float:
    """The chi-squared upper tail ``P(X > statistic)`` with ``dof`` degrees of freedom.

    Relative error below 1e-12 (``tests/frequency/test_skew.py`` checks
    it against mpmath on each side of the critical values).
    """
    if statistic <= 0:
        # Outside the open support the tail is 1 (rounding can leave the
        # statistic a hair below zero on near-uniform counts).
        return 1.0
    if dof < 1:
        raise InvalidParameterError(f"degrees of freedom must be >= 1, got {dof}")
    return _exact_upper_tail(dof, 0.5 * statistic)[0]


def chi_squared_skew_test(
    profile: FrequencyProfile, alpha: float = 0.05
) -> SkewTestResult:
    """Run the HYBSKEW chi-squared uniformity test on a sample profile.

    Parameters
    ----------
    profile:
        Frequency profile of the sample.
    alpha:
        Significance level; the sample is declared high-skew when the
        statistic exceeds the chi-squared ``1 - alpha`` quantile with
        ``d - 1`` degrees of freedom.

    Returns
    -------
    SkewTestResult
        ``high_skew`` is False for degenerate samples (``d <= 1``), where
        uniformity cannot be rejected.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must be in (0, 1), got {alpha}")
    r = profile.sample_size
    d = profile.distinct
    if d <= 1 or r == 0:
        return SkewTestResult(
            statistic=0.0,
            degrees_of_freedom=max(d - 1, 0),
            critical_value=float("inf"),
            high_skew=False,
        )
    expected = r / d
    # sum_j (c_j - e)^2 / e = (sum_j c_j^2)/e - r  since sum_j c_j = r.
    sum_squares = sum(i * i * count for i, count in profile.counts.items())
    statistic = sum_squares / expected - r
    dof = d - 1
    critical = chi_squared_critical_value(dof, alpha)
    return SkewTestResult(
        statistic=statistic,
        degrees_of_freedom=dof,
        critical_value=critical,
        high_skew=statistic > critical,
    )


def is_high_skew(profile: FrequencyProfile, alpha: float = 0.05) -> bool:
    """Convenience wrapper: True when the sample fails the uniformity test."""
    return chi_squared_skew_test(profile, alpha=alpha).high_skew
