"""Tests for the trial-profile batch handed to every estimator."""

from __future__ import annotations

from repro.frequency import FrequencyProfile
from repro.frequency.batch import FrequencyProfileBatch

PROFILES = [
    FrequencyProfile({1: 3, 2: 1, 5000: 1}),  # Theorem-1 heavy head + tail
    FrequencyProfile({1: 500}),
    FrequencyProfile({2: 50}),
    FrequencyProfile({1: 1}),
    FrequencyProfile({7: 2, 1: 4, 3: 3}),     # hand-built insertion order
]


class TestLayout:
    def test_from_profiles_keeps_the_profiles_in_trial_order(self):
        batch = FrequencyProfileBatch.from_profiles(iter(PROFILES))
        assert len(batch) == len(PROFILES)
        assert all(got is want for got, want in zip(batch, PROFILES))

    def test_empty_batch(self):
        batch = FrequencyProfileBatch.from_profiles([])
        assert len(batch) == 0
