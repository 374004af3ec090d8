"""Tests for the chi-squared skew test (HYBSKEW's gate)."""

from __future__ import annotations

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


class TestChiSquaredMatchesScipyStats:
    """The ``scipy.special`` route is bit-identical to ``scipy.stats.chi2``."""

    DOF = np.arange(1, 5001)

    @pytest.mark.parametrize("alpha", [0.05, 0.01, 1e-6])
    def test_critical_value(self, alpha):
        want = stats.chi2.ppf(1.0 - alpha, self.DOF)
        got = [chi_squared_critical_value(int(dof), alpha) for dof in self.DOF]
        assert [v.hex() for v in got] == [float(v).hex() for v in want]

    @pytest.mark.parametrize("alpha", [0.05, 0.01, 1e-6])
    def test_p_value(self, alpha):
        # At the critical value itself, and on either side of it.
        critical = stats.chi2.ppf(1.0 - alpha, self.DOF)
        for statistic in (critical, 0.5 * critical, 1.5 * critical):
            want = stats.chi2.sf(statistic, self.DOF)
            got = [
                chi_squared_p_value(float(x), int(dof))
                for x, dof in zip(statistic, self.DOF)
            ]
            assert [v.hex() for v in got] == [float(v).hex() for v in want]

    @pytest.mark.parametrize("statistic", [0.0, -0.0, -1e-12, -3.0])
    def test_p_value_of_a_non_positive_statistic_is_one(self, statistic):
        for dof in (1, 5, 500):
            assert chi_squared_p_value(statistic, dof) == 1.0
            assert float(stats.chi2.sf(statistic, dof)) == 1.0

    def test_skew_test_result_fields(self, rng):
        column = zipf_column(100_000, z=1.0, rng=rng)
        for fraction in (0.001, 0.01, 0.05):
            profile = UniformWithoutReplacement().profile(
                column.values, rng, fraction=fraction
            )
            result = chi_squared_skew_test(profile, alpha=0.05)
            dof = result.degrees_of_freedom
            assert result.critical_value == float(stats.chi2.ppf(0.95, dof))
            assert result.p_value == float(stats.chi2.sf(result.statistic, dof))


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
