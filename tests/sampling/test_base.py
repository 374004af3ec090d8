"""Tests for sampler plumbing (size resolution, column coercion)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.sampling import UniformWithoutReplacement, as_column, resolve_sample_size


class TestAsColumn:
    def test_passes_through_1d(self):
        data = np.arange(5)
        assert as_column(data) is data

    def test_coerces_lists(self):
        column = as_column([1, 2, 3])
        assert column.tolist() == [1, 2, 3]

    def test_rejects_2d(self):
        with pytest.raises(InvalidParameterError):
            as_column(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            as_column([])


class TestResolveSampleSize:
    def test_explicit_size(self):
        assert resolve_sample_size(1000, size=100) == 100
        # Integral floats and numpy integers are row counts too.
        assert resolve_sample_size(1000, size=100.0) == 100
        assert resolve_sample_size(1000, size=np.int64(100)) == 100
        assert resolve_sample_size(1000, size=np.float64(100.0)) == 100

    def test_fraction(self):
        assert resolve_sample_size(1000, fraction=0.25) == 250

    def test_fraction_rounds(self):
        assert resolve_sample_size(1000, fraction=0.0004) == 1  # at least one row

    def test_fraction_one_is_full_scan(self):
        assert resolve_sample_size(1000, fraction=1.0) == 1000

    def test_requires_exactly_one_spec(self):
        with pytest.raises(InvalidParameterError):
            resolve_sample_size(1000)
        with pytest.raises(InvalidParameterError):
            resolve_sample_size(1000, size=10, fraction=0.1)

    def test_size_bounds(self):
        with pytest.raises(InvalidParameterError):
            resolve_sample_size(1000, size=0)
        with pytest.raises(InvalidParameterError):
            resolve_sample_size(1000, size=1001)
        # A fractional or non-finite size is rejected, not truncated,
        # whether or not the scheme may oversample.
        for bad in (10.7, np.float64(2.5), math.nan, math.inf, -math.inf):
            for oversample in (False, True):
                with pytest.raises(InvalidParameterError, match="integer"):
                    resolve_sample_size(1000, size=bad, allow_oversample=oversample)
        with pytest.raises(InvalidParameterError, match="integer"):
            UniformWithoutReplacement().profile(
                np.arange(100), np.random.default_rng(0), size=10.7
            )

    def test_fraction_bounds(self):
        with pytest.raises(InvalidParameterError):
            resolve_sample_size(1000, fraction=0.0)
        with pytest.raises(InvalidParameterError):
            resolve_sample_size(1000, fraction=1.5)
