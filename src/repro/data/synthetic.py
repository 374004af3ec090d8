"""Synthetic workload constructors for the paper's §6 experiments.

Beyond the plain ``(n, Z, dup)`` Zipf columns, the experiments need:

* the *bounded-domain scaleup* series (Figure 9): a fixed base
  distribution is duplicated harder and harder, so ``D`` stays constant
  while ``n`` grows;
* the *unbounded-domain scaleup* series (Figure 10): fixed duplication
  factor, so ``D`` grows with ``n``;
* controlled corner-case columns (all-distinct, constant,
  heavy-plus-singletons a la Theorem 1's Scenario B) used by tests and
  examples.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.data.column import Column, SizeRuns
from repro.data.zipf import (
    _RANK_CHUNK,
    shuffled_from_class_sizes,
    zipf_class_sizes,
)
from repro.errors import DataGenerationError

__all__ = [
    "bounded_scaleup_column",
    "unbounded_scaleup_column",
    "all_distinct_column",
    "constant_column",
    "uniform_column",
    "needle_column",
    "column_with_distinct",
    "distinct_class_sizes",
    "distinct_size_runs",
    "clustered_column",
]


def bounded_scaleup_column(
    n_rows: int,
    base_rows: int = 1000,
    z: float = 2.0,
    rng: np.random.Generator | None = None,
) -> Column:
    """Figure 9's workload: duplicate a fixed Zipf base up to ``n_rows``.

    "We generated data with Z=2 which gives [tens of] distinct values
    for n = 1000.  To generate the 100K table, we made 100 copies of
    each distinct value" (§6).  ``n_rows`` must be a multiple of
    ``base_rows``; the distinct count is independent of ``n_rows``.
    """
    if n_rows % base_rows != 0:
        raise DataGenerationError(
            f"n_rows={n_rows} is not a multiple of base_rows={base_rows}"
        )
    rng = rng if rng is not None else np.random.default_rng()
    copies = n_rows // base_rows
    sizes = zipf_class_sizes(base_rows, z) * copies
    return shuffled_from_class_sizes(
        sizes, rng, name=f"bounded-scaleup(n={n_rows},z={z:g},base={base_rows})"
    )


def unbounded_scaleup_column(
    n_rows: int,
    duplication: int = 100,
    z: float = 2.0,
    rng: np.random.Generator | None = None,
) -> Column:
    """Figure 10's workload: fixed duplication, domain growing with ``n``."""
    rng = rng if rng is not None else np.random.default_rng()
    if n_rows % duplication != 0:
        raise DataGenerationError(
            f"n_rows={n_rows} is not a multiple of duplication={duplication}"
        )
    sizes = zipf_class_sizes(n_rows // duplication, z) * duplication
    return shuffled_from_class_sizes(
        sizes, rng, name=f"unbounded-scaleup(n={n_rows},z={z:g},dup={duplication})"
    )


def all_distinct_column(n_rows: int, name: str = "all-distinct") -> Column:
    """Every row a fresh value (``D = n``) — a key-like column."""
    if n_rows < 1:
        raise DataGenerationError(f"n_rows must be >= 1, got {n_rows}")
    return Column(name=name, values=np.arange(n_rows, dtype=np.int64))


def constant_column(n_rows: int, name: str = "constant") -> Column:
    """A single value everywhere (``D = 1``) — Theorem 1's Scenario A."""
    if n_rows < 1:
        raise DataGenerationError(f"n_rows must be >= 1, got {n_rows}")
    return Column(name=name, values=np.zeros(n_rows, dtype=np.int64))


def uniform_column(
    n_rows: int,
    distinct: int,
    rng: np.random.Generator | None = None,
    name: str | None = None,
) -> Column:
    """``distinct`` values of (near-)equal multiplicity, randomly laid out."""
    if not 1 <= distinct <= n_rows:
        raise DataGenerationError(
            f"distinct must be in [1, n_rows], got {distinct} for n={n_rows}"
        )
    rng = rng if rng is not None else np.random.default_rng()
    base, extra = divmod(n_rows, distinct)
    sizes = np.full(distinct, base, dtype=np.int64)
    sizes[:extra] += 1
    return shuffled_from_class_sizes(
        sizes, rng, name=name or f"uniform(n={n_rows},D={distinct})"
    )


def needle_column(
    n_rows: int,
    singletons: int,
    rng: np.random.Generator | None = None,
    name: str | None = None,
) -> Column:
    """Theorem 1's Scenario B: one heavy value plus ``singletons`` needles."""
    if not 0 <= singletons < n_rows:
        raise DataGenerationError(
            f"singletons must be in [0, n_rows), got {singletons} for n={n_rows}"
        )
    rng = rng if rng is not None else np.random.default_rng()
    sizes = np.concatenate(
        [
            np.array([n_rows - singletons], dtype=np.int64),
            np.ones(singletons, dtype=np.int64),
        ]
    )
    return shuffled_from_class_sizes(
        sizes, rng, name=name or f"needles(n={n_rows},k={singletons})"
    )


def clustered_column(
    n_rows: int,
    distinct: int,
    name: str | None = None,
) -> Column:
    """A value-clustered layout: each value's rows are consecutive.

    The paper randomizes its layouts precisely because clustering breaks
    block sampling ("The layout of data for each column was random",
    §6); this generator produces the opposite extreme for the
    sampling-design ablation.  ``n_rows`` need not divide evenly; the
    first values absorb the remainder.
    """
    if not 1 <= distinct <= n_rows:
        raise DataGenerationError(
            f"distinct must be in [1, n_rows], got {distinct} for n={n_rows}"
        )
    base, extra = divmod(n_rows, distinct)
    sizes = np.full(distinct, base, dtype=np.int64)
    sizes[:extra] += 1
    values = np.repeat(np.arange(distinct, dtype=np.int64), sizes)
    return Column(
        name=name or f"clustered(n={n_rows},D={distinct})",
        values=values,
        _class_sizes=np.sort(sizes),
    )


def _weights(first: int, stop: int, z: float) -> np.ndarray:
    """The Zipf weights ``1 / i^z`` of ranks ``first`` up to ``stop - 1``, in place."""
    weights = np.arange(first, stop, dtype=np.float64)
    weights **= z
    return np.divide(1.0, weights, out=weights)


def _weight_total(first: int, stop: int, z: float) -> float:
    """``_weights(first, stop, z).sum()``, bit for bit, a leaf of ranks at a time.

    numpy sums a float64 array pairwise: an array of more than 128
    elements is cut after half its length, rounded down to a multiple
    of 8, and each part is summed the same way.  Cutting at the same
    points down to leaves of at most ``_RANK_CHUNK`` ranks, and summing
    each leaf with numpy, adds the same floats in the same order
    (``tests/data/test_zipf_solve.py`` holds it to the whole-array sum).
    """
    count = stop - first
    if count <= _RANK_CHUNK:
        return float(_weights(first, stop, z).sum())
    half = count // 2
    half -= half % 8
    return _weight_total(first, first + half, z) + _weight_total(first + half, stop, z)


def _check_size_rule(n_rows: int, distinct: int, z: float) -> None:
    """Raise unless ``1 <= distinct <= n_rows`` and ``z >= 0``."""
    if not 1 <= distinct <= n_rows:
        raise DataGenerationError(
            f"distinct must be in [1, n_rows], got {distinct} for n={n_rows}"
        )
    if z < 0:
        raise DataGenerationError(f"z must be >= 0, got {z}")


def _size_chunks(
    n_rows: int, distinct: int, z: float
) -> Iterator[tuple[int, np.ndarray]]:
    """The sizes of :func:`distinct_class_sizes` as ``(start, sizes)`` chunks of ranks.

    Every chunk comes once with its floored sizes; then the chunks
    that the rounding residual changes come again, settled.  A caller
    that keeps the last sizes it got for each ``start`` ends with the
    final sizes; the generator itself holds one chunk at a time.  The
    caller checks the arguments (:func:`_check_size_rule`).
    """
    total = _weight_total(1, distinct + 1, z)
    starts = range(0, distinct, _RANK_CHUNK)

    def floored(start: int) -> np.ndarray:
        scaled = _weights(start + 1, min(start + _RANK_CHUNK, distinct) + 1, z)
        np.multiply(n_rows, scaled, out=scaled)
        np.divide(scaled, total, out=scaled)
        return np.maximum(1, np.floor(scaled, out=scaled), out=scaled).astype(np.int64)

    # Rows above the one-row floor in the chunks before each chunk.
    spare_before: list[int] = []
    spare = 0
    for start in starts:
        sizes = floored(start)
        spare_before.append(spare)
        spare += int(sizes.sum()) - sizes.size
        yield start, sizes
    residual = n_rows - distinct - spare
    if residual > 0:
        # Spread the leftover rows over the head: `per` more rows for
        # each of the first `head` ranks, and one more for the first `extra`.
        head = min(distinct, residual)
        per, extra = divmod(residual, head)
        for start in starts:
            if start >= head:
                break
            sizes = floored(start)
            sizes[: head - start] += per
            sizes[: max(0, extra - start)] += 1
            yield start, sizes
    elif residual < 0:
        # The floors overshot (many sizes hit the one-row floor): shave
        # the ranks in rank order, none below one row, until the
        # overshoot is spent.  D <= n classes of one row each always
        # fit, so it always is.
        for start, before in zip(starts, spare_before):
            if before >= -residual:
                break
            sizes = floored(start)
            above = sizes - 1
            shaved_before = before + np.cumsum(above) - above
            sizes -= np.clip(-residual - shaved_before, 0, above)
            yield start, sizes


def distinct_class_sizes(n_rows: int, distinct: int, z: float = 1.0) -> np.ndarray:
    """Zipf-shaped class sizes with an exact distinct count, in rank order.

    Used by the real-dataset surrogates, where the published schema fixes
    each column's cardinality: rank ``i`` gets weight ``1 / i^z``, its
    size is ``n_rows`` times its share of the weights, floored, with a
    one-row floor, and the rounding residual is settled in rank order.
    Leftover rows go to the largest classes.  When the one-row floor
    overshoots, the head classes are shaved, down to one row if need
    be, in rank order, so the sizes are then not in descending order:
    ``distinct_class_sizes(936, 814, 2.0)`` starts ``[1, 1, 17, 35, 22]``.
    """
    _check_size_rule(n_rows, distinct, z)
    sizes = np.empty(distinct, dtype=np.int64)
    for start, chunk in _size_chunks(n_rows, distinct, z):
        sizes[start : start + chunk.size] = chunk
    return sizes


def distinct_size_runs(n_rows: int, distinct: int, z: float = 1.0) -> SizeRuns:
    """``SizeRuns.of(distinct_class_sizes(n_rows, distinct, z))``, one chunk at a time.

    Each chunk of ranks is reduced to its runs as it comes, so no
    array longer than one chunk is built, whatever ``distinct``.
    """
    _check_size_rule(n_rows, distinct, z)
    chunk_runs = {
        start: SizeRuns.of(chunk)
        for start, chunk in _size_chunks(n_rows, distinct, z)
    }
    return SizeRuns.from_spectrum(
        np.concatenate([runs.sizes for runs in chunk_runs.values()]),
        np.concatenate([runs.counts for runs in chunk_runs.values()]),
    )


def column_with_distinct(
    n_rows: int,
    distinct: int,
    z: float = 1.0,
    rng: np.random.Generator | None = None,
    name: str | None = None,
) -> Column:
    """A randomly laid-out column with :func:`distinct_class_sizes` classes."""
    sizes = distinct_class_sizes(n_rows, distinct, z)
    rng = rng if rng is not None else np.random.default_rng()
    return shuffled_from_class_sizes(
        sizes, rng, name=name or f"zipfD(n={n_rows},D={distinct},z={z:g})"
    )
