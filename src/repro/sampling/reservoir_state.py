"""A persistent, chunk-fed reservoir (Vitter's Algorithm R).

The stateful core shared by the streaming and maintained ANALYZE paths:
feed it value chunks in arrival order and at any moment its contents
are a uniform without-replacement sample of everything seen so far.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import numpy.typing as npt

from repro.errors import InvalidParameterError
from repro.frequency.profile import FrequencyProfile

__all__ = ["ChunkedReservoir"]


class ChunkedReservoir:
    """Algorithm R over a stream of numpy chunks.

    Parameters
    ----------
    capacity:
        Maximum rows retained (``r``).
    rng:
        Randomness source for replacement decisions.
    """

    def __init__(self, capacity: int, rng: np.random.Generator) -> None:
        if capacity < 1:
            raise InvalidParameterError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._rng = rng
        self._values: npt.NDArray[Any] | None = None
        self._rows_seen = 0

    @property
    def rows_seen(self) -> int:
        """Total rows consumed so far."""
        return self._rows_seen

    @property
    def size(self) -> int:
        """Rows currently held (== capacity once the stream exceeds it)."""
        return 0 if self._values is None else int(self._values.size)

    def consume(self, chunk: npt.ArrayLike) -> None:
        """Absorb the next chunk of the stream (in arrival order)."""
        data = np.asarray(chunk)
        if data.ndim != 1:
            raise InvalidParameterError(
                f"chunks must be 1-D, got shape {data.shape}"
            )
        if data.size == 0:
            return
        if self._values is None:
            head = data[: self.capacity].copy()
            self._values = head
            self._rows_seen = head.size
            data = data[head.size :]
            if data.size == 0:
                return
        elif self._values.size < self.capacity:
            needed = self.capacity - self._values.size
            self._values = np.concatenate([self._values, data[:needed]])
            self._rows_seen += min(needed, data.size)
            data = data[needed:]
            if data.size == 0:
                return
        # Algorithm R: global row index t (0-based) replaces a random
        # slot with probability capacity / (t + 1).
        indices = np.arange(self._rows_seen, self._rows_seen + data.size)
        slots = self._rng.integers(0, indices + 1)
        hits = slots < self.capacity
        # Later rows must overwrite earlier ones (last write wins per
        # slot).  Reversing the accepted rows makes the *last* writer of
        # each slot its first occurrence, which is the one
        # ``np.unique(..., return_index=True)`` keeps.
        winner_slots, winner_index = np.unique(slots[hits][::-1], return_index=True)
        self._values[winner_slots] = data[np.flatnonzero(hits)[::-1][winner_index]]
        self._rows_seen += data.size

    def values(self) -> npt.NDArray[Any]:
        """The current sample (raises before any row has been consumed)."""
        if self._values is None:
            raise InvalidParameterError("no rows consumed yet")
        return self._values

    def profile(self) -> FrequencyProfile:
        """Frequency profile of the current sample."""
        return FrequencyProfile.from_sample(self.values())
