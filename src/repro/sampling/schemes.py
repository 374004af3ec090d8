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

from collections.abc import Sequence
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.contracts import requires
from repro.data.column import Column
from repro.errors import InvalidParameterError
from repro.frequency.profile import FrequencyProfile
from repro.sampling.base import RowSampler
from repro.sampling.batch import profiles_from_samples

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


def _profile_of_counts(counts: npt.NDArray[np.int64]) -> FrequencyProfile:
    """The profile of per-class sample counts, in ascending frequency.

    Ascending frequency is the insertion order of
    :meth:`FrequencyProfile.from_sample`; classes with no sampled row
    (count 0) are not part of the sample.
    """
    histogram = np.bincount(counts)
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

    def _draw_batch(
        self,
        column: npt.NDArray[Any],
        r: int,
        rng: np.random.Generator,
        trials: int,
    ) -> Sequence[npt.NDArray[Any]]:
        # The index draws stay per-trial: ``Generator.choice`` without
        # replacement is O(r) and stream-dependent, whereas a batched
        # Gumbel-key top-r would be O(n) per trial at the paper's rates
        # (r/n <= 6.4%) *and* consume a different stream.  The batch win
        # here is the shared profile reduction.
        return [self._draw(column, r, rng) for _ in range(trials)]

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
        would, and maps them to classes through the column's unshuffled
        :meth:`~repro.data.column.Column.class_layout` (O(r) per trial).
        """
        sizes = column.class_sizes
        if _ROWS_PER_CLASS * sizes.size <= r:
            return "hypergeometric", [
                _profile_of_counts(rng.multivariate_hypergeometric(sizes, r))
                for _ in range(trials)
            ]
        layout = column.class_layout()
        return "index", profiles_from_samples(
            [
                layout[rng.choice(layout.size, size=r, replace=False)]
                for _ in range(trials)
            ]
        )


class UniformWithReplacement(RowSampler):
    """``r`` independent uniform row draws (rows may repeat)."""

    name = "srswr"
    without_replacement = False

    def _draw(
        self, column: npt.NDArray[Any], r: int, rng: np.random.Generator
    ) -> npt.NDArray[Any]:
        indices = rng.integers(0, column.size, size=r)
        return column[indices]

    def _draw_batch(
        self,
        column: npt.NDArray[Any],
        r: int,
        rng: np.random.Generator,
        trials: int,
    ) -> Sequence[npt.NDArray[Any]]:
        # One (trials, r) draw fills the output buffer element by
        # element from the same bit stream as ``trials`` successive
        # size-r draws, so this is bit-identical to the serial loop.
        indices = rng.integers(0, column.size, size=(trials, r))
        return list(column[indices])


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

    def _draw_batch(
        self,
        column: npt.NDArray[Any],
        r: int,
        rng: np.random.Generator,
        trials: int,
    ) -> Sequence[npt.NDArray[Any]]:
        # The coin flips are already one vectorized draw per trial; the
        # draws stay in a per-trial loop so the rare empty-mask fallback
        # consumes the stream at exactly the position the serial path
        # would.  The batch win is the shared profile reduction.
        return [self._draw(column, r, rng) for _ in range(trials)]


class Reservoir(RowSampler):
    """Single-pass reservoir sampling (Vitter's Algorithm R).

    Produces a uniform without-replacement sample while reading the
    column strictly once, as a table-scan statistics collector would.
    Implemented in vectorized form: row ``t`` (0-based) replaces a
    random reservoir slot with probability ``r / (t + 1)``.
    """

    name = "reservoir"
    without_replacement = True

    def _draw(
        self, column: npt.NDArray[Any], r: int, rng: np.random.Generator
    ) -> npt.NDArray[Any]:
        n = column.size
        reservoir = column[:r].copy()
        if n == r:
            return reservoir
        tail = np.arange(r, n)
        # Candidate slot for each tail row; the row enters the reservoir
        # iff its candidate slot index falls below r.
        slots = rng.integers(0, tail + 1)
        hits = slots < r
        if hits.any():
            # Later rows must overwrite earlier ones (last write wins
            # per slot).  Reversing the accepted rows makes the *last*
            # writer of each slot its first occurrence, which is the one
            # ``np.unique(..., return_index=True)`` keeps.
            last_first_slots = slots[hits][::-1]
            winner_slots, winner_index = np.unique(
                last_first_slots, return_index=True
            )
            reservoir[winner_slots] = column[tail[hits][::-1][winner_index]]
        return reservoir

    def _draw_batch(
        self,
        column: npt.NDArray[Any],
        r: int,
        rng: np.random.Generator,
        trials: int,
    ) -> Sequence[npt.NDArray[Any]]:
        return [self._draw(column, r, rng) for _ in range(trials)]


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

    def _draw_batch(
        self,
        column: npt.NDArray[Any],
        r: int,
        rng: np.random.Generator,
        trials: int,
    ) -> Sequence[npt.NDArray[Any]]:
        return [self._draw(column, r, rng) for _ in range(trials)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Block(block_size={self.block_size})"


#: The scheme used by the paper's experiments.
DEFAULT_SAMPLER = UniformWithoutReplacement()
