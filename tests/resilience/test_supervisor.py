"""Tests for RetryPolicy, jitter backoff, and PartialSweepResult."""

from __future__ import annotations

import itertools

import pytest

from repro.errors import InvalidParameterError
from repro.resilience import PartialSweepResult, RetryPolicy, jitter_delays


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.retries == 2
        assert policy.timeout is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retries": -1},
            {"timeout": 0},
            {"timeout": -3.0},
            {"base_delay": -0.1},
            {"base_delay": 2.0, "max_delay": 1.0},
        ],
    )
    def test_invalid_policies_are_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            RetryPolicy(**kwargs)


class TestJitterDelays:
    def test_deterministic_per_seed_and_index(self):
        policy = RetryPolicy()
        a = list(itertools.islice(jitter_delays(7, 3, policy), 10))
        b = list(itertools.islice(jitter_delays(7, 3, policy), 10))
        assert a == b

    def test_different_indices_differ(self):
        policy = RetryPolicy()
        a = list(itertools.islice(jitter_delays(7, 0, policy), 10))
        b = list(itertools.islice(jitter_delays(7, 1, policy), 10))
        assert a != b

    def test_delays_stay_within_bounds(self):
        policy = RetryPolicy(base_delay=0.05, max_delay=0.4)
        for delay in itertools.islice(jitter_delays(0, 0, policy), 50):
            assert policy.base_delay <= delay <= policy.max_delay

    def test_zero_delay_policy_yields_zeros(self):
        policy = RetryPolicy(base_delay=0.0, max_delay=0.0)
        assert list(itertools.islice(jitter_delays(0, 0, policy), 5)) == [0.0] * 5


class TestPartialSweepResult:
    def test_sequence_behavior_and_gaps(self):
        partial = PartialSweepResult(
            ["a", None, "c"], missing=[1], errors={1: "boom"}
        )
        assert len(partial) == 3
        assert partial[0] == "a"
        assert partial[1] is None
        assert list(partial) == ["a", None, "c"]
        assert not partial.complete

    def test_describe_names_the_exact_gaps(self):
        partial = PartialSweepResult(
            [None, "b", None], missing=[0, 2], errors={0: "timeout", 2: "crash"}
        )
        text = partial.describe()
        assert "missing [0, 2]" in text
        assert "timeout" in text and "crash" in text
        assert "1/3" in text

    def test_complete_result(self):
        partial = PartialSweepResult(["a", "b"], missing=[])
        assert partial.complete
        assert "complete" in partial.describe()

    def test_repr_is_informative(self):
        partial = PartialSweepResult(["a", None], missing=[1], errors={})
        assert "1/2" in repr(partial)
