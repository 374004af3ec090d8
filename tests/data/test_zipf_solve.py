"""The size builders return the sizes they returned before, bit for bit.

The Zipf scale solve reads its ranks a chunk at a time: each bisection
step sums the rounded sizes chunk by chunk and stops once the sum is
decided, the rank powers ``i^z`` of a chunk are computed once, and the
sizes at the solved scale are reduced to size runs a chunk at a time.
``distinct_class_sizes`` sums its weights leaf by leaf along numpy's
pairwise split and computes its sizes a chunk of ranks at a time, and
``distinct_size_runs`` reduces those chunks to size runs as they come.
The oracles below are the builders as they were before: a solve over
whole rank arrays that recomputed the powers and summed integer sizes
at every step, and one whole-array expression for the surrogate sizes,
reduced by ``SizeRuns.of``.  Every sweep column's sizes, and through
them the sweep goldens and the stability digest, rest on these sizes,
so any difference fails here first.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import distinct_class_sizes, distinct_size_runs, synthetic, zipf
from repro.data.column import SizeRuns
from repro.data.surrogates import _TABLES, _scaled_columns
from repro.errors import DataGenerationError
from repro.experiments.figures import _KIND_BOUNDED

from tests.experiments.sweep_inputs import sweep_inputs


def _oracle_sizes_for_scale(scale: float, z: float, max_classes: int) -> np.ndarray:
    if scale <= 0.0:
        return np.zeros(0, dtype=np.int64)
    if z > 0 and z * np.log(max_classes + 1.0) > np.log(max(2.0 * scale, 1e-300)):
        rank_limit = int(np.floor((2.0 * scale) ** (1.0 / z)))
    else:
        rank_limit = max_classes
    rank_limit = max(1, min(rank_limit, max_classes))
    ranks = np.arange(1, rank_limit + 1, dtype=np.float64)
    sizes = np.round(scale / ranks**z).astype(np.int64)
    return sizes[sizes > 0]


def _oracle_solve(total_rows: int, z: float) -> np.ndarray:
    lo, hi = 0.0, float(total_rows)
    while _oracle_sizes_for_scale(hi, z, total_rows).sum() < total_rows:
        lo = hi
        hi *= 2.0
    for _ in range(64):
        mid = (lo + hi) / 2.0
        if _oracle_sizes_for_scale(mid, z, total_rows).sum() < total_rows:
            lo = mid
        else:
            hi = mid
    sizes = _oracle_sizes_for_scale(hi, z, total_rows)
    residual = int(total_rows - sizes.sum())
    if residual != 0:
        sizes = sizes.copy()
        sizes[0] += residual
    return np.ascontiguousarray(np.sort(sizes)[::-1])


def _assert_same_runs(got: SizeRuns, want: SizeRuns, *case) -> None:
    for field, got_field, want_field in zip(SizeRuns._fields, got, want):
        assert got_field.dtype == want_field.dtype, field
        assert got_field.tobytes() == want_field.tobytes(), (field, *case)


def _assert_same_solve(total_rows: int, z: float) -> None:
    """The solve's runs and the expanded sizes against the whole-array oracle."""
    expected = _oracle_solve(total_rows, z)
    solved = zipf._solved_size_runs.__wrapped__(total_rows, z)
    _assert_same_runs(solved, SizeRuns.of(expected), total_rows, z)
    sizes = zipf.zipf_class_sizes(total_rows, z)
    assert sizes.dtype == expected.dtype
    assert sizes.tobytes() == expected.tobytes(), (total_rows, z)


@pytest.mark.parametrize("scale", [1, 20], ids=["paper", "smoke"])
def test_every_sweep_column_gets_the_same_sizes(monkeypatch, scale):
    specs, _ = sweep_inputs(monkeypatch, scale)
    solves = {
        (spec.factor if spec.kind == _KIND_BOUNDED else spec.n_rows // spec.factor, spec.z)
        for spec in specs
    }
    assert len(solves) >= 8 and any(z == 0 for _, z in solves)
    for total_rows, z in sorted(solves):
        _assert_same_solve(total_rows, z)


@pytest.mark.parametrize("z", [0.05, 0.3, 0.5, 0.8, 1.0, 1.3, 2.0, 2.7, 3.0, 4.0, 7.5])
@pytest.mark.parametrize("total_rows", [1, 2, 3, 10, 99, 1000, 4321, 10_000, 77_777])
def test_a_grid_of_solves_gets_the_same_sizes(total_rows, z):
    _assert_same_solve(total_rows, z)


@pytest.mark.parametrize(
    "total_rows, z",
    [
        # At z = 0.05 every rank gets a row, so the rank limit is the
        # row count: a whole chunk, a chunk and one rank, two chunks and one.
        (zipf._RANK_CHUNK, 0.05),
        (zipf._RANK_CHUNK + 1, 0.05),
        (2 * zipf._RANK_CHUNK + 1, 0.05),
        # The first step's rank limit spans 16 or 31 chunks; at z = 1
        # it shrinks to 3 or 5 chunks as the bracket narrows, at
        # z = 0.5 it stays near a million ranks.
        (1_000_000, 0.5),
        (1_000_000, 1.0),
        (2_000_000, 1.0),
    ],
)
def test_solves_over_many_chunks_get_the_same_sizes(total_rows, z):
    _assert_same_solve(total_rows, z)


def _oracle_distinct_class_sizes(n_rows: int, distinct: int, z: float) -> np.ndarray:
    ranks = np.arange(1, distinct + 1, dtype=np.float64)
    weights = 1.0 / ranks**z
    sizes = np.maximum(1, np.floor(n_rows * weights / weights.sum())).astype(np.int64)
    residual = int(n_rows - sizes.sum())
    if residual < 0:
        for idx in range(sizes.size):
            if residual == 0:
                break
            take = min(-residual, int(sizes[idx]) - 1)
            sizes[idx] -= take
            residual += take
        if residual != 0:
            raise DataGenerationError("cannot fit")
    elif residual > 0:
        head = min(sizes.size, max(1, residual))
        per, extra = divmod(residual, head)
        sizes[:head] += per
        sizes[:extra] += 1
    return sizes


def _assert_same_distinct_sizes(n_rows: int, distinct: int, z: float) -> None:
    """Both surrogate builders against the whole-array oracle."""
    built = distinct_class_sizes(n_rows, distinct, z)
    expected = _oracle_distinct_class_sizes(n_rows, distinct, z)
    assert built.dtype == expected.dtype
    assert built.tobytes() == expected.tobytes(), (n_rows, distinct, z)
    runs = distinct_size_runs(n_rows, distinct, z)
    _assert_same_runs(runs, SizeRuns.of(built), n_rows, distinct, z)


@pytest.mark.parametrize("scale", [1, 20], ids=["paper", "smoke"])
def test_every_surrogate_column_gets_the_same_sizes(monkeypatch, scale):
    _, datasets = sweep_inputs(monkeypatch, scale)
    assert {name for name, _ in datasets} == set(_TABLES)
    for name, dataset_scale in datasets:
        n_rows, specs = _TABLES[name]
        for spec, rows, distinct in _scaled_columns(n_rows, specs, dataset_scale):
            _assert_same_distinct_sizes(rows, distinct, spec.skew)


@pytest.mark.parametrize("z", [0.0, 0.02, 0.3, 1.0, 1.8, 2.0, 4.0])
@pytest.mark.parametrize(
    "n_rows, distinct",
    [
        (1, 1),
        (2, 1),
        (7, 7),
        (100, 3),
        (1000, 999),
        (65_536, 65_536),
        (70_000, 65_537),
        (140_000, 131_073),
        (300_000, 250_000),
        (1_000_000, 70_000),
        # A size lands within an ulp of an integer here (at z = 2 and
        # z = 1): another order of the float operations or of the sum
        # floors it differently.
        (147, 3),
        (154_007, 6),
    ],
)
def test_a_grid_of_surrogate_sizes_gets_the_same_sizes(n_rows, distinct, z):
    _assert_same_distinct_sizes(n_rows, distinct, z)


#: Inputs whose one-row floor overshoots, so head classes are shaved in
#: rank order and the sizes do not descend.
OVERSHOOTS = [(936, 814, 2.0), (73_500, 70_000, 1.0), (204_000, 200_000, 0.4)]


@pytest.mark.parametrize("n_rows, distinct, z", OVERSHOOTS)
def test_overshooting_floors_shave_the_head_in_rank_order(n_rows, distinct, z):
    sizes = distinct_class_sizes(n_rows, distinct, z)
    assert (sizes[1:] > sizes[:-1]).any()
    _assert_same_distinct_sizes(n_rows, distinct, z)


def test_a_shaved_head_starts_with_one_row_classes():
    sizes = distinct_class_sizes(936, 814, 2.0)
    assert sizes[:5].tolist() == [1, 1, 17, 35, 22]
    assert sizes.sum() == 936


@pytest.mark.parametrize(
    "n_rows, distinct, z",
    # MSSales `invoice` at scale 0.1: a residual of 19,629 rows adds one
    # row to each rank of a 154-chunk prefix.
    OVERSHOOTS[1:] + [(199_629, 180_000, 0.02)],
)
def test_a_residual_spread_over_many_chunks_gets_the_same_sizes(
    monkeypatch, n_rows, distinct, z
):
    # The smallest chunk the weight sum allows (numpy never cuts fewer
    # than 129 elements), so the residual reaches past the first chunk.
    monkeypatch.setattr(synthetic, "_RANK_CHUNK", 128)
    chunks = sum(1 for _ in synthetic._size_chunks(n_rows, distinct, z))
    assert chunks >= -(-distinct // 128) + 2
    _assert_same_distinct_sizes(n_rows, distinct, z)


@pytest.mark.parametrize(
    "distinct",
    [65_535, 65_536, 65_537, 131_073, 1_800_000]
    + [8 * 2**k + d for k in range(14, 19) for d in (-1, 1)],
)
@pytest.mark.parametrize("z", [0.02, 0.9, 2.0])
def test_the_leafwise_weight_total_is_the_whole_array_sum(distinct, z):
    whole = synthetic._weights(1, distinct + 1, z).sum()
    assert synthetic._weight_total(1, distinct + 1, z) == whole
