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

import numpy as np

from repro.data.column import Column
from repro.data.zipf import shuffled_from_class_sizes, zipf_class_sizes
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


#: Ranks per chunk when :func:`distinct_class_sizes` writes its sizes.
_RANK_CHUNK = 1 << 16


def _weights(first: int, stop: int, z: float) -> np.ndarray:
    """The Zipf weights ``1 / i^z`` of ranks ``first`` up to ``stop - 1``, in place."""
    weights = np.arange(first, stop, dtype=np.float64)
    weights **= z
    return np.divide(1.0, weights, out=weights)


def distinct_class_sizes(n_rows: int, distinct: int, z: float = 1.0) -> np.ndarray:
    """Zipf-shaped class sizes with an exact distinct count (descending).

    Used by the real-dataset surrogates, where the published schema fixes
    each column's cardinality: ranks get weight ``1 / i^z``, sizes are
    scaled to ``n_rows`` with a one-row floor, and the rounding residual
    is spread over the largest classes.
    """
    if not 1 <= distinct <= n_rows:
        raise DataGenerationError(
            f"distinct must be in [1, n_rows], got {distinct} for n={n_rows}"
        )
    if z < 0:
        raise DataGenerationError(f"z must be >= 0, got {z}")
    # One float pass over every rank gives the pairwise sum of the
    # weights; the sizes are then written a chunk of ranks at a time,
    # each chunk's weights recomputed by the same ufuncs.
    total = _weights(1, distinct + 1, z).sum()
    sizes = np.empty(distinct, dtype=np.int64)
    for start in range(0, distinct, _RANK_CHUNK):
        stop = min(start + _RANK_CHUNK, distinct)
        scaled = _weights(start + 1, stop + 1, z)
        np.multiply(n_rows, scaled, out=scaled)
        np.divide(scaled, total, out=scaled)
        sizes[start:stop] = np.maximum(1, np.floor(scaled, out=scaled), out=scaled)
    residual = int(n_rows - sizes.sum())
    if residual < 0:
        # Floors overshot (possible when many sizes hit the 1-row floor):
        # shave the largest classes, never below one row.
        for idx in range(sizes.size):
            if residual == 0:
                break
            take = min(-residual, int(sizes[idx]) - 1)
            sizes[idx] -= take
            residual += take
        if residual != 0:
            raise DataGenerationError(
                f"cannot fit {distinct} distinct values into {n_rows} rows"
            )
    elif residual > 0:
        # Distribute leftover rows over the head, proportionally.
        head = min(sizes.size, max(1, residual))
        per, extra = divmod(residual, head)
        sizes[:head] += per
        sizes[:extra] += 1
    return sizes


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
