"""Tests for the generalized Zipfian generator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import zipf_class_sizes, zipf_column
from repro.data.zipf import shuffled_from_class_sizes
from repro.errors import DataGenerationError


class TestClassSizes:
    def test_z_zero_all_singletons(self):
        sizes = zipf_class_sizes(1000, 0.0)
        assert sizes.size == 1000
        assert (sizes == 1).all()

    def test_sizes_sum_to_total(self):
        for z in (0.5, 1.0, 2.0, 4.0):
            sizes = zipf_class_sizes(10_000, z)
            assert sizes.sum() == 10_000

    def test_sizes_descending_and_positive(self):
        sizes = zipf_class_sizes(10_000, 2.0)
        assert (sizes > 0).all()
        assert (np.diff(sizes) <= 0).all()

    def test_higher_skew_fewer_classes(self):
        counts = [zipf_class_sizes(10_000, z).size for z in (0.0, 1.0, 2.0, 3.0)]
        assert counts == sorted(counts, reverse=True)

    def test_zipf_shape(self):
        # For Z=2 the head class should hold the majority of the rows.
        sizes = zipf_class_sizes(10_000, 2.0)
        assert sizes[0] > 0.5 * 10_000

    def test_validation(self):
        with pytest.raises(DataGenerationError):
            zipf_class_sizes(0, 1.0)
        with pytest.raises(DataGenerationError):
            zipf_class_sizes(100, -1.0)

    @settings(deadline=None, max_examples=25)
    @given(
        st.integers(min_value=1, max_value=50_000),
        st.floats(min_value=0.0, max_value=4.0),
    )
    def test_total_always_exact(self, total, z):
        sizes = zipf_class_sizes(total, z)
        assert sizes.sum() == total
        assert (sizes > 0).all()


class TestColumnGeneration:
    def test_paper_recipe(self, rng):
        # Table 1's configuration: Z=0, dup=100, n=1M -> D = 10,000
        # values of exactly 100 copies each.
        column = zipf_column(1_000_000, z=0.0, duplication=100, rng=rng)
        assert column.n_rows == 1_000_000
        assert column.distinct_count == 10_000
        assert (column.class_sizes == 100).all()

    def test_duplication_multiplies_sizes(self, rng):
        base = zipf_class_sizes(1000, 2.0)
        column = zipf_column(10_000, z=2.0, duplication=10, rng=rng)
        assert sorted(column.class_sizes.tolist()) == sorted(
            (base * 10).tolist()
        )

    def test_divisibility_enforced(self, rng):
        with pytest.raises(DataGenerationError):
            zipf_column(1001, z=1.0, duplication=10, rng=rng)
        with pytest.raises(DataGenerationError):
            zipf_column(1000, z=1.0, duplication=0, rng=rng)

    def test_layout_randomized(self, rng):
        # With a random layout, the first half of a heavily-skewed column
        # should not be sorted by value.
        column = zipf_column(10_000, z=1.0, rng=rng)
        values = column.values
        assert not (np.diff(values) >= 0).all()

    def test_deterministic_given_seed(self):
        a = zipf_column(10_000, z=1.0, rng=np.random.default_rng(7))
        b = zipf_column(10_000, z=1.0, rng=np.random.default_rng(7))
        assert np.array_equal(a.values, b.values)


class TestShuffledFromClassSizes:
    def test_materializes_exact_multiplicities(self, rng):
        column = shuffled_from_class_sizes(np.array([3, 2, 1]), rng)
        assert column.n_rows == 6
        assert sorted(column.class_sizes.tolist()) == [1, 2, 3]

    def test_value_offset(self, rng):
        column = shuffled_from_class_sizes(
            np.array([1, 1]), rng, value_offset=100
        )
        assert sorted(np.unique(column.values).tolist()) == [100, 101]

    def test_rejects_bad_sizes(self, rng):
        with pytest.raises(DataGenerationError):
            shuffled_from_class_sizes(np.array([]), rng)
        with pytest.raises(DataGenerationError):
            shuffled_from_class_sizes(np.array([2, 0]), rng)

    @pytest.mark.parametrize(
        "sizes", [[2.9, 1.2], [3.0, 0.5], [2.0, np.nan], [np.inf, 1.0]]
    )
    def test_rejects_non_integral_sizes(self, rng, sizes):
        with pytest.raises(DataGenerationError, match="integers"):
            shuffled_from_class_sizes(np.array(sizes), rng)

    @pytest.mark.parametrize(
        "sizes",
        [np.array([3.0, 2.0]), np.array([3, 2], dtype=np.uint8), [np.int32(3), 2]],
        ids=["integral-floats", "uint8", "numpy-ints"],
    )
    def test_integral_sizes_of_any_type_pass(self, rng, sizes):
        column = shuffled_from_class_sizes(sizes, rng)
        assert column.n_rows == 5
        assert column.class_sizes.tolist() == [2, 3]
