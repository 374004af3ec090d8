"""Tests for the chi-squared skew test (HYBSKEW's gate)."""

from __future__ import annotations

import math
import struct
import sys

import mpmath
import numpy as np
import pytest
from scipy import stats

from repro.data import uniform_column, zipf_column
from repro.errors import InvalidParameterError
from repro.frequency import (
    FrequencyProfile,
    chi_squared_skew_test,
    is_high_skew,
)
from repro.frequency.skew import chi_squared_critical_value, chi_squared_p_value
from repro.sampling import UniformWithoutReplacement


class TestDegenerateSamples:
    def test_single_distinct_value_is_low_skew(self):
        result = chi_squared_skew_test(FrequencyProfile({10: 1}))
        assert not result.high_skew
        assert result.p_value == 1.0

    def test_empty_like_profile(self):
        result = chi_squared_skew_test(FrequencyProfile({1: 1}))
        assert not result.high_skew


class TestStatistic:
    def test_hand_computed_statistic(self):
        # Counts (1, 3): r=4, d=2, e=2; chi2 = (1+1)/2... = (1-2)^2/2+(3-2)^2/2 = 1
        profile = FrequencyProfile({1: 1, 3: 1})
        result = chi_squared_skew_test(profile)
        assert result.statistic == pytest.approx(1.0)
        assert result.degrees_of_freedom == 1

    def test_uniform_counts_zero_statistic(self):
        profile = FrequencyProfile({3: 10})
        result = chi_squared_skew_test(profile)
        assert result.statistic == pytest.approx(0.0)
        assert not result.high_skew

    def test_alpha_validation(self, small_profile):
        with pytest.raises(InvalidParameterError):
            chi_squared_skew_test(small_profile, alpha=0.0)
        with pytest.raises(InvalidParameterError):
            chi_squared_skew_test(small_profile, alpha=1.5)


def _exact_critical_value(dof: int, tail: float, start: float) -> mpmath.mpf:
    """The exact ``x`` with ``Q(dof / 2, x / 2) = tail``, by Newton steps in mpmath."""
    a = mpmath.mpf(dof) / 2
    target = mpmath.mpf(tail)
    log_gamma = mpmath.loggamma(a)
    y = mpmath.mpf(start) / 2
    for _ in range(8):
        upper = mpmath.gammainc(a, y, mpmath.inf, regularized=True)
        density = mpmath.exp((a - 1) * mpmath.log(y) - y - log_gamma)
        step = (upper - target) / density
        y += step
        if abs(step) < mpmath.mpf(10) ** -45 * y:
            return 2 * y
    raise AssertionError(f"mpmath Newton did not converge at dof={dof}")


def _exact_tails(dofs: np.ndarray, statistics: np.ndarray) -> np.ndarray:
    """``Q(dof / 2, x / 2)`` for every pair, by its finite sum in long double.

    ``a = dof / 2`` is an integer or a half-integer, so the tail is a sum
    of positive Poisson-like terms, plus ``erfc(sqrt(y))`` (from 30-digit
    mpmath) for odd ``dof``.  Each term is the one before times
    ``y / order``: up to 2,500 of them for ``dof <= 5000``.  In x86-64's
    80-bit long double the sums agree with 40-digit mpmath to ~1e-17
    (``test_the_tail_oracle_against_mpmath``), far below the 1e-12
    under test.
    """
    y = np.asarray(statistics, dtype=np.longdouble) / 2
    odd = dofs % 2 == 1
    with mpmath.workdps(30):
        erfc = [
            float(mpmath.erfc(mpmath.sqrt(mpmath.mpf(float(half))))) if is_odd else 0.0
            for half, is_odd in zip(y, odd)
        ]
    total = np.array(erfc, dtype=np.longdouble)
    pi = np.arccos(np.longdouble(-1))
    term = np.where(odd, 2 * np.exp(-y) * np.sqrt(y / pi), np.exp(-y))
    order = np.where(odd, np.longdouble(1.5), np.longdouble(1))
    terms = np.where(odd, (dofs - 1) // 2, dofs // 2)
    for k in range(int(terms.max())):
        total += np.where(k < terms, term, 0)
        term = term * y / order
        order += 1
    return total


def _ulps_apart(got: float, want: float) -> int:
    """Doubles between two positive floats (0 when equal)."""
    bits = struct.unpack("<2q", struct.pack("<2d", got, want))
    return abs(bits[0] - bits[1])


class TestChiSquaredMatchesScipyStats:
    """The values scipy's ``chi2`` approximates, and the decisions it makes.

    No double routine matches scipy's ``chi2`` bit for bit, and scipy's
    own quantile is up to 28 ulps off the exact value, so the quantile
    is checked to within 1 ulp and the tail to within 1e-12 of the exact
    values (mpmath at 50 digits), and the gate's decisions against
    scipy's.
    """

    ALPHAS = (1e-6, 0.001, 0.01, 0.05, 0.2)
    DOFS = (*range(1, 201), *range(201, 5001, 37), 21_326, 127_022)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_critical_value(self, alpha):
        # The tail chi2.ppf(1 - alpha) inverts is 1 - (1 - alpha), which
        # differs from alpha by thousands of quantile ulps at alpha = 1e-6.
        tail = 1.0 - (1.0 - alpha)
        with mpmath.workdps(50):
            far = {}
            for dof in self.DOFS:
                got = chi_squared_critical_value(dof, alpha)
                want = float(_exact_critical_value(dof, tail, got))
                if _ulps_apart(got, want) > 1:
                    far[dof] = (got, want)
        assert far == {}

    def test_critical_value_where_the_forward_product_is_not_enough(self):
        # Lentz's forward product alone puts this one 2 ulps off; walking
        # the fraction back from its depth puts it within 1.
        tail = 1.0 - (1.0 - 0.2)
        got = chi_squared_critical_value(219, 0.2)
        with mpmath.workdps(50):
            want = float(_exact_critical_value(219, tail, got))
        assert _ulps_apart(got, want) <= 1

    @pytest.mark.parametrize("alpha", [0.05, 0.01, 1e-6])
    def test_p_value(self, alpha):
        # Every dof to 5,000, at scipy's critical value and on either side
        # of it: 15,000 statistics per alpha.
        dofs = np.arange(1, 5001)
        critical = stats.chi2.ppf(1.0 - alpha, dofs)
        statistics = np.concatenate([critical, 0.5 * critical, 1.5 * critical])
        dofs = np.tile(dofs, 3)
        want = _exact_tails(dofs, statistics)
        got = np.array(
            [chi_squared_p_value(float(x), int(dof)) for x, dof in zip(statistics, dofs)],
            dtype=np.longdouble,
        )
        assert float(np.max(np.abs(got - want) / want)) <= 1e-12

    def test_the_tail_oracle_against_mpmath(self):
        # The long-double sums above, and the largest dofs the gate sees,
        # against 40-digit mpmath at the three statistics of each alpha.
        with mpmath.workdps(40):
            for alpha in (0.05, 0.01, 1e-6):
                for dof in (1, 2, 3, 40, 41, 999, 4_999, 5_000, 21_326, 127_022):
                    critical = float(stats.chi2.ppf(1.0 - alpha, dof))
                    for statistic in (critical, 0.5 * critical, 1.5 * critical):
                        want = mpmath.gammainc(
                            mpmath.mpf(dof) / 2,
                            mpmath.mpf(statistic) / 2,
                            mpmath.inf,
                            regularized=True,
                        )
                        got = chi_squared_p_value(statistic, dof)
                        if want < sys.float_info.min:
                            # 1.5x the critical value at dof 127,022 is
                            # ~e^-6000 out: no normal double is that small.
                            assert got < sys.float_info.min
                            continue
                        assert float(abs(got - want) / want) <= 1e-12
                        if dof <= 5_000:
                            oracle = _exact_tails(np.array([dof]), np.array([statistic]))
                            digits = np.format_float_scientific(oracle[0], unique=True)
                            assert float(abs(mpmath.mpf(digits) - want) / want) <= 1e-15

    def test_critical_value_is_monotone_in_dof_and_alpha(self):
        alphas = (0.5, 0.2, 0.1, 0.05, 0.01, 1e-3, 1e-6, 1e-9)
        dofs = (*range(1, 2001), 5_000, 21_326, 127_022, 1_000_000)
        for alpha in alphas:
            values = [chi_squared_critical_value(dof, alpha) for dof in dofs]
            assert all(low < high for low, high in zip(values, values[1:]))
        for dof in (1, 2, 3, 40, 41, 500, 127_022):
            values = [chi_squared_critical_value(dof, alpha) for alpha in alphas]
            assert all(low < high for low, high in zip(values, values[1:]))

    def test_an_alpha_too_small_to_leave_a_tail_has_no_critical_value(self):
        # 1 - (1 - 1e-300) is 0, so no statistic exceeds the critical value.
        assert chi_squared_critical_value(7, 1e-300) == math.inf

    @pytest.mark.parametrize("alpha", [0.7, 0.999999])
    def test_an_alpha_above_one_half_inverts_the_lower_tail(self, alpha):
        lower = 1.0 - alpha
        with mpmath.workdps(40):
            for dof in (1, 2, 3, 40, 41, 1000, 1_000_000):
                got = chi_squared_critical_value(dof, alpha)
                exact = 1 - mpmath.gammainc(
                    mpmath.mpf(dof) / 2, mpmath.mpf(got) / 2, mpmath.inf, regularized=True
                )
                assert float(exact) == pytest.approx(lower, rel=1e-12)

    @pytest.mark.parametrize("statistic", [0.0, -0.0, -1e-12, -3.0])
    def test_p_value_of_a_non_positive_statistic_is_one(self, statistic):
        for dof in (1, 5, 500):
            assert chi_squared_p_value(statistic, dof) == 1.0

    def test_invalid_arguments(self):
        with pytest.raises(InvalidParameterError):
            chi_squared_critical_value(0, 0.05)
        with pytest.raises(InvalidParameterError):
            chi_squared_critical_value(3, 1.0)
        with pytest.raises(InvalidParameterError):
            chi_squared_p_value(1.0, 0)

    def test_skew_test_result_fields(self, rng):
        column = zipf_column(100_000, z=1.0, rng=rng)
        for fraction in (0.001, 0.01, 0.05):
            profile = UniformWithoutReplacement().profile(
                column.values, rng, fraction=fraction
            )
            result = chi_squared_skew_test(profile, alpha=0.05)
            dof = result.degrees_of_freedom
            assert result.critical_value == chi_squared_critical_value(dof, 0.05)
            # The decision is scipy's, whatever ulps the quantiles differ by.
            assert result.high_skew == (result.statistic > stats.chi2.ppf(0.95, dof))
            assert result.p_value == pytest.approx(
                stats.chi2.sf(result.statistic, dof), rel=1e-10, abs=1e-300
            )


class TestOnGeneratedData:
    def test_uniform_data_low_skew(self, rng):
        column = uniform_column(100_000, 1000, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, fraction=0.05)
        assert not is_high_skew(profile)

    def test_zipf_data_high_skew(self, rng):
        column = zipf_column(100_000, z=2.0, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, fraction=0.05)
        assert is_high_skew(profile)

    def test_smaller_alpha_rejects_less(self, rng):
        # With a tiny alpha the critical value grows, so any sample that
        # is low-skew at alpha=0.05 stays low-skew at alpha=1e-6.
        column = uniform_column(50_000, 500, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, fraction=0.05)
        loose = chi_squared_skew_test(profile, alpha=0.05)
        strict = chi_squared_skew_test(profile, alpha=1e-6)
        assert strict.critical_value > loose.critical_value
        if not loose.high_skew:
            assert not strict.high_skew
