"""Unit and property tests for FrequencyProfile."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidSampleError
from repro.frequency import FrequencyProfile

profiles = st.dictionaries(
    keys=st.integers(min_value=1, max_value=50),
    values=st.integers(min_value=1, max_value=40),
    min_size=1,
    max_size=10,
).map(FrequencyProfile)


class TestConstruction:
    def test_from_sample_list(self):
        profile = FrequencyProfile.from_sample(["a", "b", "b", "c", "c", "c"])
        assert profile.counts == {1: 1, 2: 1, 3: 1}

    def test_from_sample_numpy(self):
        profile = FrequencyProfile.from_sample(np.array([5, 5, 7, 8, 8, 8, 8]))
        assert profile.counts == {1: 1, 2: 1, 4: 1}

    def test_from_sample_numpy_rejects_2d(self):
        with pytest.raises(InvalidSampleError):
            FrequencyProfile.from_sample(np.zeros((2, 2)))

    def test_from_multiplicities(self):
        profile = FrequencyProfile.from_multiplicities([3, 1, 1])
        assert profile.counts == {1: 2, 3: 1}

    def test_from_multiplicities_rejects_nonpositive(self):
        with pytest.raises(InvalidSampleError):
            FrequencyProfile.from_multiplicities([1, 0])

    def test_empty(self):
        profile = FrequencyProfile.empty()
        assert profile.sample_size == 0
        assert profile.distinct == 0
        assert not profile

    def test_zero_counts_dropped(self):
        profile = FrequencyProfile({1: 0, 2: 3})
        assert profile.counts == {2: 3}

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(InvalidSampleError):
            FrequencyProfile({0: 4})
        with pytest.raises(InvalidSampleError):
            FrequencyProfile({-1: 4})

    def test_rejects_negative_count(self):
        with pytest.raises(InvalidSampleError):
            FrequencyProfile({2: -1})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: FrequencyProfile({1.5: 2}),
            lambda: FrequencyProfile({2: 0.5}),
            lambda: FrequencyProfile.from_multiplicities([1.7, 2.2]),
        ],
        ids=["fractional-frequency", "fractional-count", "fractional-multiplicities"],
    )
    def test_rejects_non_integral_input(self, build):
        # int() would truncate these: 1.5 -> 1, and a 0.5 count -> a
        # class that silently vanishes.
        with pytest.raises(InvalidSampleError):
            build()

    def test_integral_floats_numpy_ints_and_bools_are_accepted(self):
        profile = FrequencyProfile({3.0: np.int64(2), np.int32(1): True, 2: 4.0})
        assert list(profile.counts.items()) == [(3, 2), (1, 1), (2, 4)]
        assert all(type(i) is int and type(c) is int for i, c in profile.counts.items())
        multiplicities = [np.int64(2), 1.0, True, 2, np.float64(4.0)]
        profile = FrequencyProfile.from_multiplicities(multiplicities)
        assert list(profile.counts.items()) == [(2, 2), (1, 2), (4, 1)]


class TestAccessors:
    def test_basic_quantities(self, small_profile):
        assert small_profile.f1 == 3
        assert small_profile.f2 == 1
        assert small_profile.f(4) == 1
        assert small_profile.f(3) == 0
        assert small_profile.distinct == 5
        assert small_profile.sample_size == 3 + 2 + 4

    def test_max_frequency(self, small_profile):
        assert small_profile.max_frequency == 4
        assert FrequencyProfile.empty().max_frequency == 0

    def test_iteration_sorted(self, small_profile):
        assert list(small_profile) == [(1, 3), (2, 1), (4, 1)]

    def test_len_counts_occupied_frequencies(self, small_profile):
        assert len(small_profile) == 3

    def test_occupied_frequencies(self, small_profile):
        assert small_profile.occupied_frequencies == (1, 2, 4)


class TestDerivedStatistics:
    def test_tail_distinct_and_rows(self, small_profile):
        assert small_profile.tail_distinct(2) == 2
        assert small_profile.tail_rows(2) == 6
        assert small_profile.tail_distinct(5) == 0

    def test_factorial_moment_orders(self, small_profile):
        # M1 = sum i f_i = r
        assert small_profile.factorial_moment(1) == small_profile.sample_size
        # M2 = sum i(i-1) f_i = 0*3 + 2*1 + 12*1
        assert small_profile.factorial_moment(2) == 14
        with pytest.raises(InvalidSampleError):
            small_profile.factorial_moment(0)

    def test_sample_coverage(self, small_profile):
        assert small_profile.sample_coverage() == pytest.approx(1 - 3 / 9)
        assert FrequencyProfile.empty().sample_coverage() == 0.0

    def test_truncate(self, small_profile):
        truncated = small_profile.truncate(2)
        assert truncated.counts == {1: 3, 2: 1}
        assert small_profile.truncate(10).counts == small_profile.counts

    def test_merge(self):
        a = FrequencyProfile({1: 2})
        b = FrequencyProfile({1: 1, 3: 1})
        assert a.merge(b).counts == {1: 3, 3: 1}

    def test_to_arrays(self, small_profile):
        freqs, counts = small_profile.to_arrays()
        assert freqs.tolist() == [1, 2, 4]
        assert counts.tolist() == [3, 1, 1]

    def test_to_dense(self, small_profile):
        assert small_profile.to_dense().tolist() == [3, 1, 0, 1]
        assert small_profile.to_dense(6).tolist() == [3, 1, 0, 1, 0, 0]
        with pytest.raises(InvalidSampleError):
            small_profile.to_dense(2)


class TestProperties:
    @given(profiles)
    def test_distinct_at_most_sample_size(self, profile):
        assert profile.distinct <= profile.sample_size

    @given(profiles)
    def test_roundtrip_through_arrays(self, profile):
        freqs, counts = profile.to_arrays()
        rebuilt = FrequencyProfile(dict(zip(freqs.tolist(), counts.tolist())))
        assert rebuilt.counts == profile.counts

    @given(profiles)
    def test_coverage_in_unit_interval(self, profile):
        assert 0.0 <= profile.sample_coverage() <= 1.0

    @given(profiles)
    def test_truncate_never_grows(self, profile):
        truncated = profile.truncate(3)
        assert truncated.distinct <= profile.distinct
        assert truncated.sample_size <= profile.sample_size

    @given(profiles, profiles)
    def test_merge_adds_quantities(self, a, b):
        merged = a.merge(b)
        assert merged.distinct == a.distinct + b.distinct
        assert merged.sample_size == a.sample_size + b.sample_size

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=300))
    def test_from_sample_consistency(self, values):
        profile = FrequencyProfile.from_sample(values)
        assert profile.sample_size == len(values)
        assert profile.distinct == len(set(values))
