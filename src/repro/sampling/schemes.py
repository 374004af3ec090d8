"""Concrete row-sampling schemes.

* :class:`UniformWithoutReplacement` — the paper's default scheme ("We
  used existing functionality in SQL Server for obtaining a random
  sample without replacement of a specified sample size", §6).  It
  also samples size-only columns, from their class sizes alone.
* :class:`UniformWithReplacement` — the scheme Theorem 2's analysis is
  written for.
* :class:`Bernoulli` — per-row coin flips at rate ``q`` (Shlosser's
  model); the realized sample size is random.
* :class:`Reservoir` — single-pass Algorithm R; distributionally
  identical to :class:`UniformWithoutReplacement` but exercises the
  streaming path a scan-based collector would use.
* :class:`Block` — page-level sampling: whole blocks of consecutive
  rows.  Cheap for a real system but *not* a uniform row sample;
  included for the sampling-design ablation, which shows how clustered
  layouts break the estimators' guarantees.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import numpy.typing as npt

from repro.contracts import requires
from repro.data.column import Column
from repro.errors import InvalidParameterError
from repro.frequency.profile import FrequencyProfile
from repro.sampling.base import RowSampler
from repro.sampling.reservoir_state import ChunkedReservoir

__all__ = [
    "UniformWithoutReplacement",
    "UniformWithReplacement",
    "Bernoulli",
    "Reservoir",
    "Block",
    "DEFAULT_SAMPLER",
]


#: Path rule of the count-domain draw: a size-only column of ``D``
#: classes sampled at ``r`` rows takes the hypergeometric path when
#: ``_ROWS_PER_CLASS * D <= r``, and the index path otherwise.
_ROWS_PER_CLASS = 2

#: :func:`_tail_picks` packs a draw ``t`` and its step ``b``, both below
#: ``n``, into the ``int64`` key ``t * n + b``: exact below this ``n``.
_PACKED_ROWS = 1 << 31


def _shuffles_tail(n: int, r: int) -> bool:
    """Whether ``rng.choice(n, r, replace=False)`` shuffles a tail of ``arange(n)``.

    numpy's own switch (with ``shuffle=True``): above 10,000 rows and
    ``n // 50`` picks, ``choice`` shuffles the last ``r`` places of an
    ``n``-entry permutation; otherwise it runs Floyd's algorithm in
    O(r) memory.
    """
    return n > 10_000 and r > n // 50


def _sorted_positions(
    rng: np.random.Generator, n: int, r: int
) -> npt.NDArray[np.int64]:
    """``np.sort(rng.choice(n, r, replace=False))`` in O(r) memory.

    The same values, and the same generator state after.  In Floyd's
    regime this is ``choice`` itself.  In the tail-shuffle regime
    ``choice`` swaps place ``b`` of ``arange(n)`` with place ``t_b``,
    drawn uniformly from ``0..b``, for ``b = n - 1`` down to
    ``m = n - r`` (down to 1 when ``m = 0``), and keeps places ``m``
    onwards.  ``integers`` with the same bounds draws the same ``t_b``,
    and :func:`_tail_picks` finds the kept set from them without the
    ``n``-entry permutation.
    """
    if not _shuffles_tail(n, r) or n >= _PACKED_ROWS:
        return np.sort(rng.choice(n, size=r, replace=False))
    draws = rng.integers(0, np.arange(n, max(n - r, 1), -1))
    if r == n:
        return np.arange(n, dtype=np.int64)  # a whole shuffle keeps every place
    return _tail_picks(draws, n)


def _tail_picks(draws: npt.NDArray[np.int64], n: int) -> npt.NDArray[np.int64]:
    """The sorted places a tail shuffle of ``arange(n)`` keeps, given its draws.

    ``draws[k]`` is ``t_b``, the place swapped with place ``b = n - 1 - k``
    (``0 <= t_b <= b``); there is one draw per kept place, so
    ``m = n - len(draws)`` places are dropped.  Floyd's algorithm over
    the same draws in the other order, ``b = m`` up to ``n - 1`` (pick
    ``t_b``, or ``b`` when ``t_b`` is already picked), picks the same
    set.  Step ``b`` picks itself when ``t_b`` is also the draw of a
    lower step, or when ``t_b`` is itself a lower step
    (``m <= t_b < b``) that picked itself; the set is those steps and
    every other step's ``t_b``.  ``draws`` is overwritten.
    """
    r = draws.size
    m = n - r
    # One sort of the (t_b, b) pairs orders the draws and puts each
    # repeated draw right after the lowest step that drew it.
    steps = np.arange(n - 1, m - 1, -1)
    keys = np.multiply(draws, n, out=draws)
    keys += steps
    keys.sort()
    drawn, step = np.divmod(keys, n, out=(keys, steps))
    step -= m
    repeat = np.zeros(r, dtype=bool)
    np.equal(drawn[1:], drawn[:-1], out=repeat[1:])
    picks_itself = np.zeros(r, dtype=bool)
    picks_itself[step[repeat]] = True
    # A step whose draw is new but is a lower step picks itself iff
    # that step did: follow these links until no step changes.
    link = ~repeat & (drawn >= m) & (drawn - m < step)
    linked, target = step[link], drawn[link] - m
    while True:
        grown = picks_itself[target] & ~picks_itself[linked]
        if not grown.any():
            break
        picks_itself[linked[grown]] = True
    kept = drawn[~picks_itself[step]]
    own = np.flatnonzero(picks_itself) + m
    return np.insert(kept, np.searchsorted(kept, own), own)


def _profile_of_histogram(histogram: npt.NDArray[np.intp]) -> FrequencyProfile:
    """The profile whose ``f_k`` is ``histogram[k]`` for ``k >= 1``, in ascending ``k``.

    Ascending frequency is the insertion order of
    :meth:`FrequencyProfile.from_sample`; entry 0 (classes with no
    sampled row) is not part of the sample.
    """
    frequencies = np.flatnonzero(histogram[1:]) + 1
    return FrequencyProfile(
        dict(zip(frequencies.tolist(), histogram[frequencies].tolist()))
    )


class UniformWithoutReplacement(RowSampler):
    """Simple random sample of ``r`` distinct rows."""

    name = "srswor"
    without_replacement = True
    count_domain = True

    def _draw(
        self, column: npt.NDArray[Any], r: int, rng: np.random.Generator
    ) -> npt.NDArray[Any]:
        indices = rng.choice(column.size, size=r, replace=False)
        return column[indices]

    def _profiles_from_sizes(
        self, column: Column, r: int, rng: np.random.Generator, trials: int
    ) -> tuple[str, list[FrequencyProfile]]:
        """Per-class sample counts of a randomly laid-out column, drawn two ways.

        The counts of ``r`` rows drawn without replacement from classes
        of sizes ``n_j`` are multivariate hypergeometric in the sizes
        alone, whatever the row layout.  With few classes per sampled
        row (``_ROWS_PER_CLASS * D <= r``) the draw is one
        hypergeometric per class (``method="marginals"``, O(D) per
        trial).  Otherwise it draws ``r`` row positions, as a row sample
        would, sorts them and counts them per class through the column's
        :meth:`~repro.data.column.Column.size_runs` (O(r log r) per
        trial, :meth:`~repro.data.column.SizeRuns.sample_histogram`).
        The positions are those ``rng.choice`` draws, from the same
        stream, but never through an ``n``-entry permutation
        (:func:`_sorted_positions`).
        """
        if _ROWS_PER_CLASS * column.distinct_count <= r:
            sizes = column.class_sizes
            return "hypergeometric", [
                _profile_of_histogram(
                    np.bincount(rng.multivariate_hypergeometric(sizes, r))
                )
                for _ in range(trials)
            ]
        runs = column.size_runs()
        profiles: list[FrequencyProfile] = []
        for _ in range(trials):
            positions = _sorted_positions(rng, column.n_rows, r)
            profiles.append(_profile_of_histogram(runs.sample_histogram(positions)))
        return "index", profiles


class UniformWithReplacement(RowSampler):
    """``r`` independent uniform row draws (rows may repeat)."""

    name = "srswr"
    without_replacement = False

    def _draw(
        self, column: npt.NDArray[Any], r: int, rng: np.random.Generator
    ) -> npt.NDArray[Any]:
        indices = rng.integers(0, column.size, size=r)
        return column[indices]


class Bernoulli(RowSampler):
    """Independent per-row inclusion with probability ``r / n``.

    The *expected* sample size is ``r``; the realized size is
    ``Binomial(n, r/n)``.  At least one row is always returned so that
    downstream profiles are non-empty.
    """

    name = "bernoulli"
    without_replacement = True

    # RowSampler.sample validates both before dispatching to _draw.
    @requires("r >= 1", "column.size >= 1")
    def _draw(
        self, column: npt.NDArray[Any], r: int, rng: np.random.Generator
    ) -> npt.NDArray[Any]:
        rate = r / column.size
        mask = rng.random(column.size) < rate
        if not mask.any():
            mask[rng.integers(0, column.size)] = True
        return column[mask]


class Reservoir(RowSampler):
    """Single-pass reservoir sampling (Vitter's Algorithm R).

    Produces a uniform without-replacement sample while reading the
    column strictly once, as a table-scan statistics collector would:
    the whole column is one chunk of a
    :class:`~repro.sampling.reservoir_state.ChunkedReservoir`, whose
    row ``t`` (0-based) replaces a random slot with probability
    ``r / (t + 1)``.
    """

    name = "reservoir"
    without_replacement = True

    def _draw(
        self, column: npt.NDArray[Any], r: int, rng: np.random.Generator
    ) -> npt.NDArray[Any]:
        reservoir = ChunkedReservoir(r, rng)
        reservoir.consume(column)
        return reservoir.values()


class Block(RowSampler):
    """Page-level sampling: include whole blocks of consecutive rows.

    Parameters
    ----------
    block_size:
        Number of consecutive rows per block (a "page").  The sampler
        picks ``ceil(r / block_size)`` distinct blocks uniformly and
        returns their rows, truncated to ``r``.
    """

    name = "block"
    without_replacement = True

    def __init__(self, block_size: int = 100) -> None:
        if block_size < 1:
            raise InvalidParameterError(f"block_size must be >= 1, got {block_size}")
        self.block_size = int(block_size)

    def _draw(
        self, column: npt.NDArray[Any], r: int, rng: np.random.Generator
    ) -> npt.NDArray[Any]:
        n = column.size
        n_blocks = -(-n // self.block_size)  # ceil division
        # Take random blocks until the target is covered; the last block
        # of the table may be partial, so a fixed block count could
        # undershoot.  The cumulative block sizes over the permuted
        # order locate the cutoff without iterating per block.
        order = rng.permutation(n_blocks)
        starts = order * self.block_size
        sizes = np.minimum(starts + self.block_size, n) - starts
        cumulative = np.cumsum(sizes)
        needed = int(np.searchsorted(cumulative, r)) + 1
        starts, sizes = starts[:needed], sizes[:needed]
        # Gather the selected blocks' rows in permuted-block order.
        offsets = np.repeat(starts, sizes)
        block_begins = np.repeat(cumulative[:needed] - sizes, sizes)
        rows = column[offsets + np.arange(offsets.size) - block_begins]
        return rows[:r]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Block(block_size={self.block_size})"


#: The scheme used by the paper's experiments.
DEFAULT_SAMPLER = UniformWithoutReplacement()
