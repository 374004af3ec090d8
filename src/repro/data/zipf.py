"""Generalized Zipfian data generation (the paper's §6 synthetic workloads).

The paper generates columns "according to the generalized Zipfian
distribution" with skew parameter ``Z`` in {0, 1, 2, 3, 4}, where
``Z = 0`` is uniform (every distinct value equally frequent) and larger
``Z`` concentrates the mass on a few head values.

We use the deterministic formulation common to the authors' SIGMOD'98
work: class ``i`` (rank ``i``) receives ``n_i ~ C / i^Z`` rows, with the
scale ``C`` solved so the sizes sum to the requested row count and
classes rounding to zero rows dropped.  ``Z = 0`` degenerates to one row
per class, so that the paper's *duplication factor* knob fully controls
multiplicity: a Z=0, dup=100, n=1M column has exactly D = 10,000 values
of 100 copies each — matching Table 1's ACTUAL = 10,000.

Rounding makes the sum land near (not exactly on) the target; the
residual is absorbed by the largest class, keeping every class size
positive and the total exact.

A column with ``D`` classes has only ``G`` distinct sizes (558 against
D = 156,173 at n = 1M, Z = 1), so the solve yields the sizes as
:class:`~repro.data.column.SizeRuns` (:func:`zipf_size_runs`) and
reads its ranks a chunk at a time; :func:`zipf_class_sizes` expands
the runs for the builders that lay out rows.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

import numpy as np

from repro.data.column import Column, SizeRuns, validated_class_sizes
from repro.errors import DataGenerationError
from repro.obs.recorder import OBS

__all__ = [
    "zipf_size_runs",
    "zipf_class_sizes",
    "zipf_column",
    "shuffled_from_class_sizes",
]

#: Ranks per chunk of a size rule: the Zipf scale solve here and the
#: surrogate sizes of :mod:`repro.data.synthetic` read this many ranks
#: at a time, and the surrogates' weight sum has no larger leaf.
_RANK_CHUNK = 1 << 16


def _rank_limit(scale: float, z: float, max_classes: int) -> int:
    """The last rank ``round(scale / i^z)`` can give a row, at most ``max_classes``."""
    # Ranks beyond (2*scale)^(1/z) round to zero rows; computed in log
    # space so tiny z cannot overflow the power.
    if z > 0 and z * np.log(max_classes + 1.0) > np.log(max(2.0 * scale, 1e-300)):
        rank_limit = int(np.floor((2.0 * scale) ** (1.0 / z)))
    else:
        rank_limit = max_classes
    return max(1, min(rank_limit, max_classes))


def zipf_size_runs(total_rows: int, z: float) -> SizeRuns:
    """The :class:`SizeRuns` of :func:`zipf_class_sizes`, without the sizes.

    The scale solve reads its ranks a chunk at a time and reduces the
    solved sizes to runs a chunk at a time, so it builds no array
    longer than one chunk of ranks; what it holds at once is the rank
    powers of the chunks its steps read (3 chunks, 1.4 MiB, at
    n = 1M, Z = 1).  It is deterministic, so repeated ``(total_rows,
    z)`` requests (a sweep regenerating the same column spec per grid
    point, or the error and variance exhibits of one workload) hit an
    in-process memo; the runs returned are shared and read-only.
    """
    if total_rows < 1:
        raise DataGenerationError(f"total_rows must be >= 1, got {total_rows}")
    if z < 0:
        raise DataGenerationError(f"z must be >= 0, got {z}")
    return _solved_size_runs(int(total_rows), float(z))


def zipf_class_sizes(total_rows: int, z: float) -> np.ndarray:
    """Class sizes (descending) of a generalized Zipfian column.

    A fresh, writable expansion of :func:`zipf_size_runs`.

    Parameters
    ----------
    total_rows:
        Total number of rows to distribute; the returned sizes sum to
        exactly this value.
    z:
        Skew.  ``z = 0`` yields ``total_rows`` classes of one row each;
        larger ``z`` yields fewer, heavier classes.
    """
    runs = zipf_size_runs(total_rows, z)
    return np.repeat(runs.sizes[::-1], runs.counts[::-1])


@lru_cache(maxsize=16)
def _solved_size_runs(total_rows: int, z: float) -> SizeRuns:
    """The (cached, read-only) runs behind :func:`zipf_size_runs`."""
    if z == 0:
        # One row per class: a single run, no scale to solve.
        runs = SizeRuns.from_spectrum(
            np.ones(1, dtype=np.int64), np.full(1, total_rows, dtype=np.int64)
        )
    else:
        runs = _scale_solve(total_rows, z)
    for array in runs:
        array.flags.writeable = False
    return runs


def _scale_solve(total_rows: int, z: float) -> SizeRuns:
    """Bisect the scale ``C`` so that ``sum_i round(C / i^z)`` reaches ``total_rows``.

    Each step evaluates the sum a chunk of ranks at a time and stops
    once it reaches ``total_rows``, since the branch is then decided;
    the rounded sizes are integral floats and every total is far below
    2**53, so each chunk's float sum, and their total, are exact.  The
    loop stops early once the midpoint equals an end of the bracket,
    since no later step could move it.  The sizes at the high end,
    rounding to zero rows dropped, are reduced to their runs a chunk at
    a time, and the rounding residual goes to the head class (rank 1).
    """
    # C = total_rows already covers it (rank 1 alone gets every row).
    lo, hi = 0.0, float(total_rows)
    # The powers i^z of each chunk a step has read, computed the first
    # time for every rank up to the high end's rank limit and kept:
    # every later scale is at most the high end, and the rank limit
    # grows with the scale, so no later step reads past it.
    powers: list[np.ndarray] = []
    scratch = np.empty(min(_RANK_CHUNK, total_rows), dtype=np.float64)

    def rounded(scale: float) -> Iterator[np.ndarray]:
        """``round(scale / i^z)`` up to ``scale``'s rank limit, a chunk at a time.

        Each chunk's sizes are floats in the scratch buffer, valid
        until the next chunk comes.
        """
        limit = _rank_limit(scale, z, total_rows)
        for chunk, start in enumerate(range(0, limit, _RANK_CHUNK)):
            if chunk == len(powers):
                reach = min(start + _RANK_CHUNK, _rank_limit(hi, z, total_rows))
                ranks = np.arange(start + 1, reach + 1, dtype=np.float64)
                ranks **= z
                powers.append(ranks)
            width = min(_RANK_CHUNK, limit - start)
            sizes = np.divide(scale, powers[chunk][:width], out=scratch[:width])
            # np.rint is what np.round calls at zero decimals.
            yield np.rint(sizes, out=sizes)

    for _ in range(64):
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break  # the bracket can narrow no further
        rows = 0.0
        for sizes in rounded(mid):
            rows += float(sizes.sum())
            if rows >= total_rows:
                break
        if rows < total_rows:
            lo = mid
        else:
            hi = mid

    # Each chunk's sizes descend, so each stretch of equal neighbours is
    # one run; from_spectrum merges a size shared across a chunk edge.
    run_sizes, run_counts = [], []
    for sizes in rounded(hi):
        starts = np.concatenate(([0], np.flatnonzero(sizes[1:] != sizes[:-1]) + 1))
        run_sizes.append(sizes[starts].astype(np.int64))
        run_counts.append(np.diff(starts, append=sizes.size))
    sizes = np.concatenate(run_sizes)
    counts = np.concatenate(run_counts)
    # Absorb the rounding residual into the head class (rank 1, first
    # in the first run): it leaves that run for a run of its own.
    residual = total_rows - int(sizes @ counts)
    if residual != 0:
        if sizes[0] + residual < 1:
            raise DataGenerationError(
                f"cannot absorb rounding residual {residual} for "
                f"total_rows={total_rows}, z={z}"
            )
        sizes = np.append(sizes, sizes[0] + residual)
        counts = np.append(counts, 1)
        counts[0] -= 1
    # Drop the ranks that round to zero rows, and a head run left empty.
    kept = (sizes > 0) & (counts > 0)
    return SizeRuns.from_spectrum(sizes[kept], counts[kept])


def shuffled_from_class_sizes(
    class_sizes: np.ndarray,
    rng: np.random.Generator,
    name: str = "synthetic",
    value_offset: int = 0,
) -> Column:
    """Materialize a column from class sizes with a random row layout.

    Value ``value_offset + i`` receives ``class_sizes[i]`` rows; rows are
    then placed at uniformly random positions ("The layout of data for
    each column was random", §6).  Every builder that lays out rows goes
    through here, so the ``data.rows_generated`` counter counts them all.
    """
    sizes = validated_class_sizes(class_sizes)
    values = np.repeat(
        np.arange(value_offset, value_offset + sizes.size, dtype=np.int64), sizes
    )
    rng.shuffle(values)
    if OBS.enabled:
        OBS.add("data.rows_generated", int(values.size))
    return Column(name=name, values=values, _class_sizes=np.sort(sizes))


def zipf_column(
    n_rows: int,
    z: float,
    duplication: int = 1,
    rng: np.random.Generator | None = None,
    name: str | None = None,
) -> Column:
    """Generate a paper-style synthetic column ``(n, Z, dup)``.

    Follows the paper's recipe exactly: "to generate a column with
    n = 1,000,000, Z = 2 and 100 duplicates, we generate Zipfian data
    for n = 10,000, and made 100 copies of each value" (§6).  ``n_rows``
    must therefore be divisible by ``duplication``.
    """
    if duplication < 1:
        raise DataGenerationError(f"duplication must be >= 1, got {duplication}")
    if n_rows % duplication != 0:
        raise DataGenerationError(
            f"n_rows={n_rows} is not divisible by duplication={duplication}"
        )
    rng = rng if rng is not None else np.random.default_rng()
    with OBS.span("data.zipf_column", n_rows=n_rows, z=z, duplication=duplication):
        base_sizes = zipf_class_sizes(n_rows // duplication, z)
        sizes = base_sizes * duplication
        label = name or f"zipf(n={n_rows},z={z:g},dup={duplication})"
        return shuffled_from_class_sizes(sizes, rng, name=label)
