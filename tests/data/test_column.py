"""Tests for the Column abstraction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import Column
from repro.data.column import SizeRuns
from repro.errors import DataGenerationError, InvalidParameterError
from repro.frequency import FrequencyProfile


class TestValidation:
    def test_rejects_2d(self):
        with pytest.raises(InvalidParameterError):
            Column("x", np.zeros((2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            Column("x", np.array([]))


class TestGroundTruth:
    def test_distinct_count(self):
        column = Column("x", np.array([1, 1, 2, 3, 3, 3]))
        assert column.distinct_count == 3
        assert column.n_rows == 6
        assert len(column) == 6

    def test_class_sizes(self):
        column = Column("x", np.array([1, 1, 2, 3, 3, 3]))
        assert sorted(column.class_sizes.tolist()) == [1, 2, 3]

    def test_population_profile(self):
        column = Column("x", np.array([1, 1, 2, 3, 3, 3]))
        profile = column.population_profile()
        assert profile == FrequencyProfile({1: 1, 2: 1, 3: 1})

    def test_caching(self):
        column = Column("x", np.arange(100))
        first = column.class_sizes
        assert column.class_sizes is first  # computed once

    def test_precomputed_sizes_respected(self):
        sizes = np.array([2, 4])
        column = Column("x", np.array([0, 0, 1, 1, 1, 1]), _class_sizes=sizes)
        assert column.class_sizes is sizes
        assert column.distinct_count == 2


class TestSizeOnlySizes:
    @pytest.mark.parametrize(
        "sizes", [[2.5, 1.7, 3], [4, 0.25], [np.nan], [1.0, -np.inf]]
    )
    def test_rejects_non_integral_sizes(self, sizes):
        with pytest.raises(DataGenerationError, match="integers"):
            Column.from_class_sizes(sizes, name="x")

    @pytest.mark.parametrize(
        "sizes",
        [[2.0, 1.0, 3.0], np.array([2, 1, 3], dtype=np.int16), [np.int64(2), 1, 3]],
        ids=["integral-floats", "int16", "numpy-ints"],
    )
    def test_integral_sizes_of_any_type_pass(self, sizes):
        column = Column.from_class_sizes(sizes, name="x")
        assert column.n_rows == 6 and column.distinct_count == 3
        assert column.class_sizes.tolist() == [1, 2, 3]

    def test_holds_one_entry_per_distinct_size(self):
        column = Column.from_class_sizes([5, 1, 5, 2, 1, 1], name="x")
        runs = column.size_runs()
        assert runs.sizes.tolist() == [1, 2, 5]
        assert runs.counts.tolist() == [3, 1, 2]
        assert runs.first_class.tolist() == [0, 3, 4]
        assert runs.first_row.tolist() == [0, 3, 5]
        assert column.population_profile().counts == {1: 3, 2: 1, 5: 2}
        assert list(column.population_profile().counts) == [1, 2, 5]

    @pytest.mark.parametrize("seed", range(12))
    def test_from_spectrum_merges_as_np_unique_does(self, seed):
        # Oracle: the np.unique + np.add.at merge that from_spectrum's
        # sort and reduceat replaced.
        rng = np.random.default_rng(seed)
        pairs = int(rng.integers(1, 300))
        sizes = rng.integers(1, int(rng.integers(2, 80)), size=pairs)
        counts = rng.integers(1, 10_000, size=pairs)
        want_sizes, owner = np.unique(sizes, return_inverse=True)
        want_counts = np.zeros(want_sizes.size, dtype=np.int64)
        np.add.at(want_counts, owner, counts)
        runs = SizeRuns.from_spectrum(sizes, counts)
        for got, want in ((runs.sizes, want_sizes), (runs.counts, want_counts)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert np.array_equal(runs.first_class, np.cumsum(want_counts) - want_counts)
        rows = want_sizes * want_counts
        assert np.array_equal(runs.first_row, np.cumsum(rows) - rows)
