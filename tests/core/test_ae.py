"""Tests for AE (the Adaptive Estimator, paper §5.2-5.3)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AE,
    GEE,
    PAPER_ESTIMATORS,
    ae_estimate,
    make_estimators,
    ratio_error,
    solve_low_frequency_count,
)
from repro.core.ae import (
    _BRACKET_CAP_FACTOR,
    _fixed_point_residual_approx,
    _high_frequency_sums_approx,
)
from repro.data import uniform_column, zipf_column
from repro.errors import InvalidParameterError
from repro.frequency import FrequencyProfile
from repro.sampling import UniformWithoutReplacement

profiles = st.dictionaries(
    keys=st.integers(min_value=1, max_value=30),
    values=st.integers(min_value=1, max_value=30),
    min_size=1,
    max_size=8,
).map(FrequencyProfile)


class TestDegenerateCases:
    def test_no_singletons_returns_d(self):
        profile = FrequencyProfile({2: 5, 7: 2})
        assert AE().estimate(profile, 100_000).value == profile.distinct

    def test_f1_zero_m_equals_f2(self):
        profile = FrequencyProfile({2: 5})
        m = solve_low_frequency_count(profile, population_size=1000)
        assert m == pytest.approx(5.0)

    def test_all_singletons_falls_back_to_gee(self, singleton_profile):
        # Every sampled row was new: Theorem 1's indistinguishable shape,
        # so AE answers with GEE's geometric mean sqrt(n/r) * r.
        result = AE().estimate(singleton_profile, 5000)
        assert result.value == pytest.approx(math.sqrt(5000 / 50) * 50)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            AE(method="bogus")
        with pytest.raises(InvalidParameterError):
            AE(rare_cutoff=0)
        with pytest.raises(InvalidParameterError):
            solve_low_frequency_count(FrequencyProfile({1: 1}), method="nope")


class TestFixedPoint:
    def test_root_satisfies_equation(self, rng):
        column = zipf_column(200_000, z=1.0, duplication=10, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, fraction=0.01)
        m = solve_low_frequency_count(profile)
        assert math.isfinite(m)
        # Residual of the approx equation at the root is ~0.
        f1, f2 = profile.f1, profile.f2
        g = f1 + 2 * f2
        a0 = sum(math.exp(-i) * c for i, c in profile.counts.items() if i >= 3)
        b0 = sum(i * math.exp(-i) * c for i, c in profile.counts.items() if i >= 3)
        tail = math.exp(-g / m)
        rhs = f1 * (a0 + m * tail) / (b0 + g * tail)
        assert (m - f1 - f2) == pytest.approx(rhs, rel=1e-6)

    def test_exact_and_approx_agree_roughly(self, rng):
        column = zipf_column(200_000, z=1.0, duplication=10, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, fraction=0.01)
        m_approx = solve_low_frequency_count(profile, method="approx")
        m_exact = solve_low_frequency_count(profile, method="exact")
        assert m_exact == pytest.approx(m_approx, rel=0.25)

    def test_estimate_is_d_plus_m_minus_rare(self, rng):
        column = zipf_column(100_000, z=1.0, duplication=10, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, fraction=0.02)
        result = AE().estimate(profile, column.n_rows)
        m = result.details["m"]
        expected = profile.distinct + m - (profile.f1 + profile.f2)
        assert result.raw_value == pytest.approx(expected)

    def test_m_at_least_observed_rare_classes(self, rng):
        column = zipf_column(100_000, z=2.0, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, fraction=0.01)
        m = solve_low_frequency_count(profile, population_size=column.n_rows)
        assert m >= profile.f1 + profile.f2 - 1e-9

    def test_structural_cap(self):
        # Profile engineered to have no finite root (pure singletons +
        # one extremely heavy value): m is capped by g*n/r.
        profile = FrequencyProfile({1: 4, 5000: 1})
        n = 1_000_000
        m = solve_low_frequency_count(profile, population_size=n)
        r = profile.sample_size
        g = 4
        assert m <= g * n / r + 1e-6


class TestKnownHardInput:
    """A documented AE limit: one root, solved right, far from the truth.

    The Z=2, dup=100 column with n = 50,000 rows and D = 24 classes,
    sampled at r = 400 (the count-domain draw at seed 878), gives
    d = 19 with nine singletons and no doubletons.  The §5.3 fixed point
    has a single root, m ~ 192.77, so AE answers d + m - f1 - f2 ~ 202.8,
    8.45 times the truth: the equation, not the solver, is what fails.
    GEE stays inside its Theorem 2 envelope on the same sample.  This
    input is the AE limit behind the perf-smoke fig4 shape failure.
    """

    PROFILE = FrequencyProfile(
        {1: 9, 3: 2, 4: 1, 5: 1, 6: 1, 7: 1, 14: 1, 20: 1, 76: 1, 253: 1}
    )
    N, D = 50_000, 24

    def test_the_profile(self):
        p = self.PROFILE
        assert (p.sample_size, p.distinct, p.f1, p.f2) == (400, 19, 9, 0)

    def test_the_residual_changes_sign_once_over_the_bracket(self):
        # With f2 = 0, f1, the rare classes f1 + f2 and the rare rows
        # f1 + 2 f2 are all 9; the bracket runs from 9 to AE's cap.
        a0, b0 = _high_frequency_sums_approx(self.PROFILE, rare_cutoff=2)
        lo, cap = 9.0, _BRACKET_CAP_FACTOR * self.N
        grid = [lo * (cap / lo) ** (k / 20_000) for k in range(20_001)]
        signs = [
            _fixed_point_residual_approx(m, 9, 9, 9, a0, b0) > 0.0 for m in grid
        ]
        flips = [k for k in range(len(grid) - 1) if signs[k] != signs[k + 1]]
        assert len(flips) == 1
        (k,) = flips
        assert grid[k] < 192.77 < grid[k + 1]
        m = solve_low_frequency_count(self.PROFILE, population_size=self.N)
        assert m == pytest.approx(192.77, abs=0.01)

    def test_ae_lands_8_45_times_above_the_truth(self):
        result = AE().estimate(self.PROFILE, self.N)
        m = result.details["m"]
        assert result.value == pytest.approx(19 + m - 9 - 0)
        assert result.value == pytest.approx(202.77, abs=0.01)
        assert ratio_error(result.value, self.D) == pytest.approx(8.45, abs=0.005)

    def test_gee_stays_inside_its_theorem_2_envelope(self):
        value = GEE().estimate(self.PROFILE, self.N).value
        envelope = math.e * math.sqrt(self.N / self.PROFILE.sample_size)
        assert value == pytest.approx(110.62, abs=0.01)
        assert ratio_error(value, self.D) == pytest.approx(4.61, abs=0.005)
        assert envelope == pytest.approx(30.39, abs=0.01)
        assert ratio_error(value, self.D) <= envelope

    def test_every_paper_estimator_stays_within_the_sanity_bounds(self):
        suite = make_estimators(PAPER_ESTIMATORS)
        assert len(suite) == 6
        for estimator in suite:
            value = estimator.estimate(self.PROFILE, self.N).value
            assert self.PROFILE.distinct <= value <= self.N, estimator.name


class TestAccuracy:
    def test_low_skew_beats_gee(self, rng):
        column = uniform_column(500_000, 5000, rng=rng)
        sampler = UniformWithoutReplacement()
        ae_errors, gee_errors = [], []
        for _ in range(5):
            profile = sampler.profile(column.values, rng, fraction=0.005)
            ae_errors.append(
                ratio_error(AE()(profile, column.n_rows), column.distinct_count)
            )
            gee_errors.append(
                ratio_error(GEE()(profile, column.n_rows), column.distinct_count)
            )
        assert sum(ae_errors) < sum(gee_errors)

    def test_near_unbiased_on_uniform(self, rng):
        column = uniform_column(500_000, 5000, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, fraction=0.01)
        error = ratio_error(AE()(profile, column.n_rows), column.distinct_count)
        assert error < 1.5

    def test_good_on_high_skew(self, rng):
        column = zipf_column(500_000, z=2.0, duplication=100, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, fraction=0.01)
        error = ratio_error(AE()(profile, column.n_rows), column.distinct_count)
        assert error < 2.0

    def test_interval_provided(self, rng):
        column = uniform_column(10_000, 100, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, fraction=0.05)
        result = AE().estimate(profile, column.n_rows)
        assert result.interval is not None
        assert result.interval.lower == profile.distinct


class TestProperties:
    @settings(deadline=None)
    @given(profiles, st.integers(min_value=0, max_value=100_000))
    def test_sanity_bounds_always_hold(self, profile, extra):
        n = profile.sample_size + extra
        if profile.distinct > n or profile.max_frequency > n:
            return
        value = AE().estimate(profile, n).value
        assert profile.distinct <= value <= n

    @settings(deadline=None)
    @given(profiles)
    def test_solver_never_raises_on_valid_profiles(self, profile):
        n = profile.sample_size * 100
        m = solve_low_frequency_count(profile, population_size=n)
        assert m >= 0

    @settings(deadline=None)
    @given(st.integers(min_value=1, max_value=4))
    def test_rare_cutoff_variants_respect_bounds(self, cutoff):
        profile = FrequencyProfile({1: 5, 2: 3, 3: 2, 4: 1, 10: 1})
        n = 10_000
        value = AE(rare_cutoff=cutoff).estimate(profile, n).value
        assert profile.distinct <= value <= n
