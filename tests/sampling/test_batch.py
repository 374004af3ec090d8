"""Tests for a row column's trials: reduction, schemes, custom samplers.

The contract under test is strong: for every built-in scheme,
``profile_batch`` must be *bit-identical* to the serial
one-``profile``-per-trial loop under the same seed — including the
position the random stream is left at — because the experiment harness
samples through ``profile_batch`` and the historical results must not
move.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidParameterError, InvalidSampleError
from repro.frequency import FrequencyProfile
from repro.sampling import (
    Bernoulli,
    Block,
    ChunkedReservoir,
    Reservoir,
    UniformWithoutReplacement,
    UniformWithReplacement,
    profiles_from_samples,
)
from repro.sampling.base import RowSampler

SCHEMES = [
    UniformWithoutReplacement(),
    UniformWithReplacement(),
    Bernoulli(),
    Reservoir(),
    Block(block_size=7),
]


def _column(seed: int = 5, n: int = 5_000) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 400, size=n)


class TestProfilesFromSamples:
    def test_matches_per_sample_reduction(self, rng):
        samples = [rng.integers(0, 50, size=size) for size in (1, 7, 200, 999)]
        batched = profiles_from_samples(samples)
        serial = [FrequencyProfile.from_sample(s) for s in samples]
        assert batched == serial

    def test_string_values(self):
        samples = [
            np.array(["a", "b", "a", "c"]),
            np.array(["b", "b", "b"]),
        ]
        assert profiles_from_samples(samples) == [
            FrequencyProfile({1: 2, 2: 1}),
            FrequencyProfile({3: 1}),
        ]

    def test_empty_batch(self):
        assert profiles_from_samples([]) == []

    def test_rejects_non_1d(self):
        with pytest.raises(InvalidSampleError):
            profiles_from_samples([np.zeros((2, 2))])

    def test_trials_of_different_dtypes_are_reduced_apart(self):
        # Each trial keeps its own dtype: concatenating the batch would
        # promote the int64 trial to float64, where 2**53 and 2**53 + 1
        # are the same value.
        samples = [
            np.array([2**53, 2**53 + 1], dtype=np.int64),
            np.array([0.5], dtype=np.float64),
        ]
        batched = profiles_from_samples(samples)
        serial = [FrequencyProfile.from_sample(s) for s in samples]
        assert batched == serial == [
            FrequencyProfile({1: 2}),
            FrequencyProfile({1: 1}),
        ]
        for got, want in zip(batched, serial):
            assert list(got.counts.items()) == list(want.counts.items())

    def test_single_value_many_trials(self):
        samples = [np.array([9] * k) for k in (1, 2, 3)]
        assert profiles_from_samples(samples) == [
            FrequencyProfile({1: 1}),
            FrequencyProfile({2: 1}),
            FrequencyProfile({3: 1}),
        ]


class TestProfileBatchBitIdentity:
    @pytest.mark.parametrize("sampler", SCHEMES, ids=lambda s: s.name)
    def test_profiles_and_stream_match_serial_loop(self, sampler):
        column = _column()
        rng_batch = np.random.default_rng(42)
        rng_serial = np.random.default_rng(42)
        batched = sampler.profile_batch(column, rng_batch, 6, fraction=0.03)
        serial = [
            sampler.profile(column, rng_serial, fraction=0.03) for _ in range(6)
        ]
        assert batched == serial
        # The stream must be left at the same position too, so code
        # mixing batch and serial calls stays reproducible.
        assert rng_batch.integers(0, 2**31) == rng_serial.integers(0, 2**31)

    @pytest.mark.parametrize("sampler", SCHEMES, ids=lambda s: s.name)
    def test_single_trial(self, sampler):
        column = _column()
        batched = sampler.profile_batch(
            column, np.random.default_rng(3), 1, size=100
        )
        serial = sampler.profile(column, np.random.default_rng(3), size=100)
        assert batched == [serial]

    def test_trials_validation(self):
        with pytest.raises(InvalidParameterError):
            UniformWithoutReplacement().profile_batch(
                _column(), np.random.default_rng(0), 0, size=10
            )

    def test_size_and_fraction_validation(self):
        with pytest.raises(InvalidParameterError):
            UniformWithoutReplacement().profile_batch(
                _column(), np.random.default_rng(0), 3
            )


class TestCustomSamplerFallback:
    def test_serial_fallback_used(self):
        calls = []

        class FirstRows(RowSampler):
            name = "first-rows"

            def _draw(self, column, r, rng):
                calls.append(r)
                return column[:r]

        profiles = FirstRows().profile_batch(
            _column(), np.random.default_rng(0), 4, size=50
        )
        assert calls == [50, 50, 50, 50]
        assert all(p.sample_size == 50 for p in profiles)


class TestVectorizedDraws:
    """The Reservoir/Block inner loops were vectorized; pin their output
    against straightforward reference implementations."""

    @staticmethod
    def _reservoir_reference(column, r, rng):
        n = column.size
        reservoir = column[:r].copy()
        if n > r:
            tail = np.arange(r, n)
            slots = rng.integers(0, tail + 1)
            hits = slots < r
            for t, slot in zip(tail[hits], slots[hits]):
                reservoir[slot] = column[t]
        return reservoir

    @staticmethod
    def _block_reference(column, r, rng, block_size):
        n = column.size
        n_blocks = -(-n // block_size)
        order = rng.permutation(n_blocks)
        pieces, got = [], 0
        for b in order:
            if got >= r:
                break
            start = b * block_size
            piece = column[start : min(start + block_size, n)]
            pieces.append(piece)
            got += piece.size
        return np.concatenate(pieces)[:r]

    @pytest.mark.parametrize("r", [1, 5, 100, 4_999, 5_000])
    def test_reservoir_matches_reference(self, r):
        column = _column()
        want_rng = np.random.default_rng(77)
        want = self._reservoir_reference(column, r, want_rng)
        got_rng = np.random.default_rng(77)
        assert np.array_equal(Reservoir()._draw(column, r, got_rng), want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        # Fed in uneven chunks (one empty, one straddling the fill), the
        # streaming reservoir keeps the same sample.
        chunked = ChunkedReservoir(r, np.random.default_rng(77))
        for chunk in np.split(column, [3, 3, 50, 1_234, 4_990]):
            chunked.consume(chunk)
        assert np.array_equal(chunked.values(), want)

    @pytest.mark.parametrize("r", [1, 5, 100, 4_999, 5_000])
    @pytest.mark.parametrize("block_size", [1, 7, 100])
    def test_block_matches_reference(self, r, block_size):
        column = _column()
        got = Block(block_size=block_size)._draw(
            column, r, np.random.default_rng(78)
        )
        want = self._block_reference(
            column, r, np.random.default_rng(78), block_size
        )
        assert np.array_equal(got, want)

    def test_reservoir_is_uniform_without_replacement(self):
        # KS-style check: positions of an all-distinct column should be
        # uniformly represented across repeated draws.
        column = np.arange(2_000)
        rng = np.random.default_rng(11)
        hits = np.zeros(column.size)
        draws = 300
        for _ in range(draws):
            sample = Reservoir()._draw(column, 200, rng)
            assert np.unique(sample).size == 200  # no row twice
            hits[sample] += 1
        expected = draws * 200 / column.size
        # Binomial(300, 0.1) per position: mean 30, sd ~5.2.  A uniform
        # sampler stays within a generous band; a biased head/tail (the
        # classic vectorization bug) would push positions far outside.
        assert hits.min() > expected - 6 * np.sqrt(expected)
        assert hits.max() < expected + 6 * np.sqrt(expected)
