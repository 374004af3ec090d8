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
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.data.column import Column, validated_class_sizes
from repro.errors import DataGenerationError
from repro.obs.recorder import OBS

__all__ = ["zipf_class_sizes", "zipf_column", "shuffled_from_class_sizes"]


def _rank_limit(scale: float, z: float, max_classes: int) -> int:
    """The last rank ``round(scale / i^z)`` can give a row, at most ``max_classes``."""
    # Ranks beyond (2*scale)^(1/z) round to zero rows; computed in log
    # space so tiny z cannot overflow the power.
    if z > 0 and z * np.log(max_classes + 1.0) > np.log(max(2.0 * scale, 1e-300)):
        rank_limit = int(np.floor((2.0 * scale) ** (1.0 / z)))
    else:
        rank_limit = max_classes
    return max(1, min(rank_limit, max_classes))


def _rounded_sizes(
    scale: float, z: float, max_classes: int, powers: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``round(scale / i^z)`` for the ranks up to the rank limit of ``scale``.

    ``powers`` holds ``i^z`` for ranks ``1, 2, ...`` up to at least that
    limit.  The sizes are written, as floats, into the front of the
    scratch buffer ``out`` (as long as ``powers``), and that view is
    returned; ranks that round to zero rows are kept.
    """
    sizes = out[: _rank_limit(scale, z, max_classes)]
    np.divide(scale, powers[: sizes.size], out=sizes)
    return np.round(sizes, out=sizes)


def zipf_class_sizes(total_rows: int, z: float) -> np.ndarray:
    """Class sizes (descending) of a generalized Zipfian column.

    The scale solve (a 64-iteration binary search over O(D)-sized
    arrays, with the powers ``i^z`` computed once and each step's sizes
    rounded into one reused buffer) is deterministic, so
    repeated ``(total_rows, z)`` requests — a sweep regenerating the
    same column spec per grid point, or the error and variance exhibits
    of one workload — hit an in-process memo; callers always receive a
    fresh, writable copy.

    Parameters
    ----------
    total_rows:
        Total number of rows to distribute; the returned sizes sum to
        exactly this value.
    z:
        Skew.  ``z = 0`` yields ``total_rows`` classes of one row each;
        larger ``z`` yields fewer, heavier classes.
    """
    if total_rows < 1:
        raise DataGenerationError(f"total_rows must be >= 1, got {total_rows}")
    if z < 0:
        raise DataGenerationError(f"z must be >= 0, got {z}")
    if z == 0:
        # One row per class: trivial to build and, at z=0, as large as
        # the column itself — not worth holding in the memo.
        return np.ones(total_rows, dtype=np.int64)
    return _solved_class_sizes(int(total_rows), float(z)).copy()


@lru_cache(maxsize=16)
def _solved_class_sizes(total_rows: int, z: float) -> np.ndarray:
    """The (cached, read-only) scale solve behind :func:`zipf_class_sizes`."""
    # Binary-search the scale C so that sum_i round(C / i^z) ~ total_rows.
    # C = total_rows already covers it (rank 1 alone gets every row), and
    # the rank limit grows with C, so the powers i^z up to that scale's
    # limit serve every step.  The ranks they are computed from then
    # serve as every step's scratch buffer.
    lo, hi = 0.0, float(total_rows)
    scratch = np.arange(1, _rank_limit(hi, z, total_rows) + 1, dtype=np.float64)
    powers = scratch**z
    for _ in range(64):
        mid = (lo + hi) / 2.0
        # Integral values far below 2**53: the float sum is exact.
        if _rounded_sizes(mid, z, total_rows, powers, scratch).sum() < total_rows:
            lo = mid
        else:
            hi = mid
    # Each float array is dropped as soon as it is read, so at most two
    # rank-length arrays are alive at once.
    rounded = _rounded_sizes(hi, z, total_rows, powers, scratch)
    del powers
    sizes = rounded.astype(np.int64)
    del rounded, scratch
    sizes = sizes[sizes > 0]
    # Absorb the rounding residual into the head class.
    residual = int(total_rows - sizes.sum())
    if residual != 0:
        if sizes.size == 0 or sizes[0] + residual < 1:
            raise DataGenerationError(
                f"cannot absorb rounding residual {residual} for "
                f"total_rows={total_rows}, z={z}"
            )
        sizes[0] += residual
    # Keep the (descending) invariant even after head adjustment.
    sizes.sort()
    sizes = sizes[::-1].copy()
    sizes.flags.writeable = False
    return sizes


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
