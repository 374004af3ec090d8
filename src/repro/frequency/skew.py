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

The chi-squared quantile and tail come straight from ``scipy.special``,
through the same calls scipy's ``chi2`` distribution makes internally
(``ppf`` is ``2 * gammaincinv(dof / 2, q)``, ``sf`` is
``chdtrc(dof, x)``), so the values are bit-identical without loading
scipy's statistics package and its import cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from scipy import special

from repro.errors import InvalidParameterError
from repro.frequency.profile import FrequencyProfile

__all__ = [
    "SkewTestResult",
    "chi_squared_critical_value",
    "chi_squared_p_value",
    "chi_squared_skew_test",
    "is_high_skew",
]


@dataclass(frozen=True)
class SkewTestResult:
    """Outcome of the chi-squared uniformity test on a sample."""

    statistic: float
    degrees_of_freedom: int
    critical_value: float
    p_value: float
    high_skew: bool


def chi_squared_critical_value(dof: int, alpha: float) -> float:
    """The upper-``alpha`` quantile of chi-squared with ``dof`` degrees of freedom.

    Equals scipy's ``chi2.ppf(1 - alpha, dof)`` bit for bit.
    """
    return float(2 * special.gammaincinv(dof / 2, 1.0 - alpha))


def chi_squared_p_value(statistic: float, dof: int) -> float:
    """The chi-squared upper tail ``P(X > statistic)`` with ``dof`` degrees of freedom.

    Equals scipy's ``chi2.sf(statistic, dof)`` bit for bit.
    """
    if statistic <= 0:
        # Outside the open support ``sf`` is 1, while ``chdtrc`` is NaN
        # for a negative argument (rounding can leave the statistic a
        # hair below zero on near-uniform counts).
        return 1.0
    return float(special.chdtrc(dof, statistic))


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
            p_value=1.0,
            high_skew=False,
        )
    expected = r / d
    # sum_j (c_j - e)^2 / e = (sum_j c_j^2)/e - r  since sum_j c_j = r.
    sum_squares = sum(i * i * count for i, count in profile.counts.items())
    statistic = sum_squares / expected - r
    dof = d - 1
    critical = chi_squared_critical_value(dof, alpha)
    p_value = chi_squared_p_value(statistic, dof)
    return SkewTestResult(
        statistic=statistic,
        degrees_of_freedom=dof,
        critical_value=critical,
        p_value=p_value,
        high_skew=statistic > critical,
    )


def is_high_skew(profile: FrequencyProfile, alpha: float = 0.05) -> bool:
    """Convenience wrapper: True when the sample fails the uniformity test."""
    return chi_squared_skew_test(profile, alpha=alpha).high_skew
