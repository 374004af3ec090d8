"""Count-domain sampling: profiles of a size-only column, drawn from class sizes.

A uniform sample of ``r`` rows without replacement from a randomly laid
out column has per-class counts that are multivariate hypergeometric in
the class sizes alone.  :class:`UniformWithoutReplacement` draws a
size-only column's profiles that way (one hypergeometric per class) or
by sampling row positions of the unshuffled layout, by a fixed rule on
``(D, r)``.  These tests hold both paths to the exact law of the whole
profile, enumerated over every ``r``-subset of tiny columns, and to the
row sampler on a materialized column of the same sizes.

Every chi-squared test runs on a fixed seed, so none can flake: a
change that moves a p-value below the threshold fails every run.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest

from repro.data import (
    Column,
    bounded_scaleup_column,
    census,
    class_size_dataset,
    distinct_class_sizes,
    shuffled_from_class_sizes,
    unbounded_scaleup_column,
    zipf_column,
)
from repro.errors import DataGenerationError, InvalidParameterError
from repro.experiments.figures import (
    _KIND_BOUNDED,
    _KIND_UNBOUNDED,
    _KIND_ZIPF,
    _ColumnSpec,
)
from repro.frequency.skew import chi_squared_p_value
from repro.obs import OBS
from repro.sampling import (
    Bernoulli,
    Block,
    Reservoir,
    UniformWithoutReplacement,
    UniformWithReplacement,
)

#: Smallest p-value a seeded goodness-of-fit test may report.
P_FLOOR = 1e-3

#: Tiny columns on both sides of the path rule (hypergeometric iff 2*D <= r).
TINY_CASES = [
    ((5, 4, 3), 7),  # D=3: hypergeometric
    ((6, 3, 2, 1), 9),  # D=4: hypergeometric
    ((4, 3, 3), 6),  # D=3, 2*D == r: hypergeometric, on the boundary
    ((4, 3, 2, 1), 7),  # D=4, 2*D == r + 1: index, on the boundary
    ((3, 2, 1, 1), 3),  # index
    ((3, 2, 1, 1), 5),  # index
    ((2,) * 6 + (1,) * 4, 4),  # D=10: index
]


def _path(sizes: tuple[int, ...], r: int) -> str:
    return "hypergeometric" if 2 * len(sizes) <= r else "index"


def _key(profile) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(profile.counts.items()))


def _exact_law(sizes: tuple[int, ...], r: int) -> dict[tuple, float]:
    """Probability of every profile, over all C(n, r) row subsets."""
    layout = np.repeat(np.arange(len(sizes)), sizes)
    tally: Counter[tuple] = Counter()
    for rows in itertools.combinations(range(layout.size), r):
        counts = np.bincount(layout[list(rows)])
        tally[tuple(sorted(Counter(c for c in counts.tolist() if c).items()))] += 1
    total = sum(tally.values())
    return {key: count / total for key, count in tally.items()}


def _pooled(expected: dict, observed: Counter) -> tuple[list[float], list[int]]:
    """Merge outcomes with expected count below 5 into one bin."""
    small = [key for key, e in expected.items() if e < 5]
    keys = [key for key in expected if key not in small]
    exp = [expected[key] for key in keys]
    obs = [observed[key] for key in keys]
    if small:
        exp.append(sum(expected[key] for key in small))
        obs.append(sum(observed[key] for key in small))
    return exp, obs


def _goodness_of_fit(expected: dict, observed: Counter) -> float:
    assert set(observed) <= set(expected), "drew a profile of probability 0"
    exp, obs = _pooled(expected, observed)
    statistic = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    return chi_squared_p_value(statistic, len(exp) - 1)


@pytest.mark.parametrize("sizes, r", TINY_CASES, ids=lambda v: str(v))
def test_each_path_draws_the_exact_profile_law(sizes, r):
    draws = 20_000
    column = Column.from_class_sizes(sizes, name="tiny")
    OBS.reset()
    OBS.enable()
    try:
        profiles = UniformWithoutReplacement().profile_batch(
            column, np.random.default_rng(2024), draws, size=r
        )
        counters = OBS.counters()
    finally:
        OBS.disable()
        OBS.reset()
    assert counters[f"sample.path.{_path(sizes, r)}"] == draws
    law = _exact_law(sizes, r)
    observed = Counter(_key(p) for p in profiles)
    p_value = _goodness_of_fit({k: draws * p for k, p in law.items()}, observed)
    assert p_value >= P_FLOOR


def _d_f1_f2(profile) -> tuple[int, int, int]:
    return profile.distinct, profile.f1, profile.f2


@pytest.mark.parametrize("r", [40, 80], ids=["index", "hypergeometric"])
def test_joint_law_of_d_f1_f2_matches_the_row_sampler(r):
    # 30 classes over 400 rows: 2*D = 60, so r=40 takes the index path
    # and r=80 the hypergeometric one.
    draws = 10_000
    sizes = distinct_class_sizes(400, 30, z=1.1)
    sampler = UniformWithoutReplacement()
    counted = sampler.profile_batch(
        Column.from_class_sizes(sizes, name="sized"),
        np.random.default_rng(7), draws, size=r,
    )
    materialized = shuffled_from_class_sizes(sizes, np.random.default_rng(8))
    rowwise = sampler.profile_batch(
        materialized.values, np.random.default_rng(9), draws, size=r
    )
    a = Counter(_d_f1_f2(p) for p in counted)
    b = Counter(_d_f1_f2(p) for p in rowwise)
    # Homogeneity of two samples of equal size: each outcome's pooled
    # count splits evenly in expectation.
    pooled = {key: (a[key] + b[key]) / 2 for key in set(a) | set(b)}
    exp, obs_a = _pooled(pooled, a)
    _, obs_b = _pooled(pooled, b)
    statistic = sum(
        (o - e) ** 2 / e for o, e in zip(obs_a + obs_b, exp + exp)
    )
    assert chi_squared_p_value(statistic, len(exp) - 1) >= P_FLOOR


class TestSizeOnlyColumn:
    SIZES = np.array([7, 1, 3, 3, 12, 1, 2])

    def test_ground_truth_matches_the_materialized_column(self):
        sized = Column.from_class_sizes(self.SIZES, name="s")
        rows = shuffled_from_class_sizes(self.SIZES, np.random.default_rng(0))
        assert sized.n_rows == rows.n_rows == len(sized) == self.SIZES.sum()
        assert sized.distinct_count == rows.distinct_count == self.SIZES.size
        assert sized.class_sizes.tolist() == rows.class_sizes.tolist()
        assert sized.population_profile() == rows.population_profile()
        assert sized.size_only and not rows.size_only

    def test_values_raise_naming_the_builder(self):
        sized = Column.from_class_sizes(self.SIZES, name="s")
        with pytest.raises(InvalidParameterError, match="shuffled_from_class_sizes"):
            sized.values

    @pytest.mark.parametrize("sizes", [[], [3, 0], [[1, 2]]])
    def test_rejects_bad_sizes(self, sizes):
        with pytest.raises(DataGenerationError):
            Column.from_class_sizes(np.array(sizes, dtype=np.int64), name="s")

    def test_class_layout_is_unshuffled_and_built_once(self):
        sized = Column.from_class_sizes(self.SIZES, name="s")
        layout = sized.class_layout()
        assert layout.dtype == np.int32
        assert layout.tolist() == np.repeat(
            np.arange(self.SIZES.size), np.sort(self.SIZES)
        ).tolist()
        assert sized.class_layout() is layout

    @pytest.mark.parametrize("r", [4, 14, 29], ids=["index", "hypergeometric", "all"])
    def test_profile_batch_returns_a_list_of_size_r(self, r):
        sized = Column.from_class_sizes(self.SIZES, name="s")
        profiles = UniformWithoutReplacement().profile_batch(
            sized, np.random.default_rng(1), 5, size=r
        )
        assert isinstance(profiles, list) and len(profiles) == 5
        assert all(p.sample_size == r for p in profiles)
        if r == sized.n_rows:
            assert profiles[0] == sized.population_profile()

    def test_fraction_resolves_against_the_class_sizes(self):
        sized = Column.from_class_sizes(self.SIZES, name="s")
        (profile,) = UniformWithoutReplacement().profile_batch(
            sized, np.random.default_rng(1), 1, fraction=0.5
        )
        assert profile.sample_size == round(0.5 * sized.n_rows)

    @pytest.mark.parametrize(
        "sampler",
        [UniformWithReplacement(), Bernoulli(), Reservoir(), Block(block_size=3)],
        ids=lambda s: s.name,
    )
    def test_row_schemes_refuse_a_size_only_column(self, sampler):
        sized = Column.from_class_sizes(self.SIZES, name="s")
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameterError, match="shuffled_from_class_sizes"):
            sampler.profile_batch(sized, rng, 2, size=4)
        with pytest.raises(InvalidParameterError, match="shuffled_from_class_sizes"):
            sampler.profile(sized, rng, size=4)

    def test_single_sample_methods_need_rows(self):
        sized = Column.from_class_sizes(self.SIZES, name="s")
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameterError, match="shuffled_from_class_sizes"):
            UniformWithoutReplacement().sample(sized, rng, size=4)

    def test_a_materialized_column_keeps_the_row_path(self):
        column = shuffled_from_class_sizes(self.SIZES, np.random.default_rng(3))
        sampler = UniformWithoutReplacement()
        via_column = sampler.profile_batch(column, np.random.default_rng(4), 6, size=9)
        via_rows = sampler.profile_batch(
            column.values, np.random.default_rng(4), 6, size=9
        )
        assert via_column == via_rows


class TestSweepInputs:
    @pytest.mark.parametrize(
        "spec, builder, kwargs",
        [
            (_ColumnSpec(_KIND_ZIPF, 20_000, 2.0, 100), zipf_column,
             {"z": 2.0, "duplication": 100}),
            (_ColumnSpec(_KIND_BOUNDED, 30_000, 2.0, 1000), bounded_scaleup_column,
             {"z": 2.0, "base_rows": 1000}),
            (_ColumnSpec(_KIND_UNBOUNDED, 20_000, 1.0, 10), unbounded_scaleup_column,
             {"z": 1.0, "duplication": 10}),
        ],
        ids=["zipf", "bounded", "unbounded"],
    )
    def test_sweep_columns_have_the_eager_builders_class_sizes(
        self, spec, builder, kwargs
    ):
        sized = spec.build()
        built = builder(spec.n_rows, rng=np.random.default_rng(0), **kwargs)
        assert sized.size_only
        assert sized.name == built.name
        assert sized.class_sizes.tolist() == built.class_sizes.tolist()

    def test_size_only_dataset_has_the_surrogates_class_sizes(self):
        sized = class_size_dataset("Census", scale=0.05)
        built = census(np.random.default_rng(0), scale=0.05)
        assert sized.name == built.name and sized.n_rows == built.n_rows
        assert sized.column_names == built.column_names
        for a, b in zip(sized, built):
            assert a.size_only
            assert a.class_sizes.tolist() == b.class_sizes.tolist()

    def test_unknown_dataset(self):
        with pytest.raises(DataGenerationError, match="unknown dataset"):
            class_size_dataset("Nope")
