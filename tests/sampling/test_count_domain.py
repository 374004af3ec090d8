"""Count-domain sampling: profiles of a size-only column, drawn from class sizes.

A uniform sample of ``r`` rows without replacement from a randomly laid
out column has per-class counts that are multivariate hypergeometric in
the class sizes alone.  :class:`UniformWithoutReplacement` draws a
size-only column's profiles that way (one hypergeometric per class) or
by sampling row positions of the unshuffled layout, by a fixed rule on
``(D, r)``.  These tests hold both paths to the exact law of the whole
profile, enumerated over every ``r``-subset of tiny columns, and to the
row sampler on a materialized column of the same sizes.  The index
path's row positions are held to ``np.sort(rng.choice(...))`` itself,
value for value and generator state after, and the set it recovers
from ``choice``'s tail-shuffle draws to literal Fisher-Yates and Floyd
loops on every draw sequence of up to seven rows.

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
from repro.frequency import FrequencyProfile
from repro.frequency.skew import chi_squared_p_value
from repro.obs import OBS
from repro.sampling import (
    Bernoulli,
    Block,
    Reservoir,
    UniformWithoutReplacement,
    UniformWithReplacement,
    profiles_from_samples,
)
from repro.sampling.schemes import _shuffles_tail, _sorted_positions, _tail_picks

from tests.experiments.sweep_inputs import sweep_inputs, sweep_sample_sizes

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


def _class_layout(column: Column) -> np.ndarray:
    """Class id of every row, classes laid out one after another."""
    return np.repeat(np.arange(column.distinct_count), column.class_sizes)


def _layout_gather(column, r, rng, trials):
    """The index path before the size-run table: a gather, reduced in one batch."""
    layout = _class_layout(column).astype(np.int32)
    return profiles_from_samples(
        [layout[rng.choice(layout.size, size=r, replace=False)] for _ in range(trials)]
    )


def _run_classes(runs, positions):
    """The class of each row position, mapped one position at a time."""
    run = np.searchsorted(runs.first_row, positions, side="right") - 1
    offset = positions - runs.first_row[run]
    return runs.first_class[run] + offset // runs.sizes[run]


def _profile_of_counts(counts):
    histogram = np.bincount(counts)
    frequencies = np.flatnonzero(histogram[1:]) + 1
    return FrequencyProfile(
        dict(zip(frequencies.tolist(), histogram[frequencies].tolist()))
    )


def _per_row_reduction(column, r, rng, trials):
    """The index path before per-run counting: every position mapped to its class."""
    runs = column.size_runs()
    profiles = []
    for _ in range(trials):
        positions = np.sort(rng.choice(column.n_rows, size=r, replace=False))
        starts = np.flatnonzero(np.diff(_run_classes(runs, positions), prepend=-1))
        profiles.append(_profile_of_counts(np.diff(starts, append=r)))
    return profiles


def _items(profiles):
    return [list(p.counts.items()) for p in profiles]


#: ``(class sizes, r)`` on the index path (``r < 2*D``).
INDEX_CASES = {
    "all-sizes-equal": (np.full(400, 7), 300),
    "one-run-of-dup-100": (np.full(600, 100), 1000),
    "all-sizes-distinct": (np.arange(1, 301), 500),
    "one-row-classes": (np.concatenate([np.ones(500, dtype=int), [60, 9, 9]]), 400),
    "all-one-row": (np.ones(800, dtype=int), 640),
    "r=1": (distinct_class_sizes(5000, 700, z=1.2), 1),
    "r=2D-1": (np.random.default_rng(4).integers(1, 6, size=200), 399),
}


@pytest.mark.parametrize("sizes, r", INDEX_CASES.values(), ids=list(INDEX_CASES))
def test_index_path_returns_the_layout_gathers_profiles(sizes, r):
    column = Column.from_class_sizes(sizes, name="index")
    assert 2 * column.distinct_count > r
    for seed in range(3):
        expected = _layout_gather(column, r, np.random.default_rng(seed), 6)
        drawn = UniformWithoutReplacement().profile_batch(
            column, np.random.default_rng(seed), 6, size=r
        )
        assert _items(drawn) == _items(expected)


@pytest.mark.parametrize("sizes, r", INDEX_CASES.values(), ids=list(INDEX_CASES))
def test_per_run_counts_match_the_per_row_reduction(sizes, r):
    column = Column.from_class_sizes(sizes, name="index")
    for seed in range(3):
        expected = _per_row_reduction(column, r, np.random.default_rng(seed), 6)
        drawn = UniformWithoutReplacement().profile_batch(
            column, np.random.default_rng(seed), 6, size=r
        )
        assert _items(drawn) == _items(expected)


@pytest.mark.parametrize("scale", [1, 20], ids=["paper", "smoke"])
def test_every_index_path_sweep_draw_matches_the_per_row_reduction(
    monkeypatch, scale
):
    drawn = 0
    for column, sizes in sweep_sample_sizes(monkeypatch, scale):
        for r in sorted(set(sizes)):
            if 2 * column.distinct_count <= r:
                continue
            expected = _per_row_reduction(column, r, np.random.default_rng(r), 2)
            profiles = UniformWithoutReplacement().profile_batch(
                column, np.random.default_rng(r), 2, size=r
            )
            assert _items(profiles) == _items(expected), (column.name, r)
            drawn += 1
    assert drawn >= 50


def _fisher_yates_kept(draws: tuple[int, ...], n: int) -> list[int]:
    """The places a top-down partial Fisher-Yates pass over ``range(n)`` keeps.

    ``draws[k]`` is swapped with place ``n - 1 - k``; the last
    ``len(draws)`` places are kept, as ``Generator.choice`` keeps them.
    """
    places = list(range(n))
    for k, t in enumerate(draws):
        b = n - 1 - k
        places[b], places[t] = places[t], places[b]
    return sorted(places[n - len(draws):])


def _floyd_picked(draws: tuple[int, ...], n: int) -> list[int]:
    """Floyd's algorithm over the same draws, from the lowest step up."""
    picked: set[int] = set()
    for b in range(n - len(draws), n):
        t = draws[n - 1 - b]
        picked.add(b if t in picked else t)
    return sorted(picked)


def test_tail_picks_are_fisher_yates_and_floyd_on_every_draw_sequence():
    # Every sequence of draws t_b in 0..b, b = n-1 down to n-r, for
    # n <= 7 and every r: the vectorized set against both loops.
    sequences = 0
    for n in range(1, 8):
        for r in range(1, n + 1):
            for draws in itertools.product(*(range(n - k) for k in range(r))):
                kept = _fisher_yates_kept(draws, n)
                assert _floyd_picked(draws, n) == kept, (n, draws)
                picks = _tail_picks(np.array(draws, dtype=np.int64), n)
                assert picks.tolist() == kept, (n, draws)
                sequences += 1
    assert sequences == 16_064


def _assert_sorted_choice(n: int, r: int, seed: int) -> None:
    """``_sorted_positions`` is ``np.sort(choice(...))``, with the same state after."""
    chosen, drawn = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = np.sort(chosen.choice(n, size=r, replace=False))
    positions = _sorted_positions(drawn, n, r)
    assert positions.dtype == expected.dtype
    assert np.array_equal(positions, expected), (n, r, seed)
    assert drawn.bit_generator.state == chosen.bit_generator.state, (n, r, seed)


#: Both sides of numpy's switch from Floyd's algorithm to a tail shuffle
#: (n > 10,000 and r > n // 50), and the largest picks.
CHOICE_GRID = [
    (n, r)
    for n in (10_000, 10_001, 20_000, 1_996_290)
    for r in (n // 50, n // 50 + 1, n - 1, n)
]


@pytest.mark.parametrize("n, r", CHOICE_GRID, ids=lambda v: str(v))
def test_sorted_positions_are_choice_sorted_with_the_same_end_state(n, r):
    for seed in range(3):
        _assert_sorted_choice(n, r, seed)


@pytest.mark.parametrize("scale", [1, 20], ids=["paper", "smoke"])
def test_every_index_path_sweep_draw_is_choice_sorted(monkeypatch, scale):
    drawn = tail = 0
    for column, sizes in sweep_sample_sizes(monkeypatch, scale):
        for r in sorted(set(sizes)):
            if 2 * column.distinct_count <= r:
                continue
            _assert_sorted_choice(column.n_rows, r, seed=r)
            drawn += 1
            tail += _shuffles_tail(column.n_rows, r)
    assert drawn >= 50 and tail >= 5


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

    def test_size_runs_map_rows_like_the_class_layout(self):
        gen = np.random.default_rng(11)
        cases = [self.SIZES] + [
            gen.integers(1, 9, size=gen.integers(1, 60)) for _ in range(50)
        ]
        for sizes in cases:
            sized = Column.from_class_sizes(sizes, name="s")
            runs = sized.size_runs()
            assert np.array_equal(
                _run_classes(runs, np.arange(sized.n_rows)), _class_layout(sized)
            )
            assert runs.sizes.tolist() == np.unique(sizes).tolist()
            assert sized.size_runs() is runs

    def test_a_size_only_column_holds_its_sizes_ascending(self):
        # Unordered, ascending and descending input give the same runs.
        for sizes in (self.SIZES, np.sort(self.SIZES), np.sort(self.SIZES)[::-1]):
            direct = Column("s", _class_sizes=sizes)
            assert direct.class_sizes.tolist() == sorted(self.SIZES.tolist())
            assert direct.size_runs().sizes.tolist() == [1, 2, 3, 7, 12]
            assert direct.size_runs().counts.tolist() == [2, 1, 2, 1, 1]

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

    def test_size_runs_map_every_sweep_column_like_its_class_layout(
        self, monkeypatch
    ):
        specs, datasets = sweep_inputs(monkeypatch, scale=20)
        columns = [spec.build() for spec in specs] + [
            column
            for name, scale in datasets
            for column in class_size_dataset(name, scale=scale)
        ]
        assert len(columns) > 60
        for column in columns:
            runs = column.size_runs()
            assert np.array_equal(
                _run_classes(runs, np.arange(column.n_rows)), _class_layout(column)
            ), column.name
            assert runs.sizes.tolist() == np.unique(column.class_sizes).tolist()

    def test_unknown_dataset(self):
        with pytest.raises(DataGenerationError, match="unknown dataset"):
            class_size_dataset("Nope")
