"""The Column abstraction shared by generators, the DB substrate, and experiments.

A column is a named 1-D array of values together with cached ground
truth (the true distinct count and class sizes) so experiments never
recompute exact answers per trial.

A column may instead hold only its class sizes
(:meth:`Column.from_class_sizes`).  Under the paper's protocol, a
uniform sample without replacement from a randomly laid-out column,
the per-class sample counts depend on the class sizes alone, so the
experiment sweeps sample such columns without building or shuffling
any rows (``docs/performance.md``, "Count-domain sampling").  A
size-only column has no :attr:`~Column.values`; asking for them raises.
"""

from __future__ import annotations

from typing import Any, NamedTuple

import numpy as np
import numpy.typing as npt

from repro.errors import DataGenerationError, InvalidParameterError
from repro.frequency.profile import FrequencyProfile

__all__ = ["Column", "SizeRuns"]


class SizeRuns(NamedTuple):
    """Classes laid out one after another, grouped into runs of equal size.

    Run ``g`` holds the classes ``first_class[g]`` up to the next run's
    first class, each of ``sizes[g]`` rows, and its rows start at
    ``first_row[g]``.  Row ``p`` of the layout therefore belongs to the
    class :meth:`classes` gives, the one
    ``np.repeat(np.arange(D), class_sizes)[p]`` names.  A uniform sample
    of row positions has the same class counts under any fixed layout,
    so this stands in for the column's rows wherever only class
    membership matters.
    """

    sizes: npt.NDArray[np.int64]
    first_class: npt.NDArray[np.int64]
    first_row: npt.NDArray[np.int64]

    def classes(self, positions: npt.NDArray[np.int64]) -> npt.NDArray[np.int64]:
        """The class of each row position (ascending for sorted positions)."""
        run = np.searchsorted(self.first_row, positions, side="right") - 1
        offset = positions - self.first_row[run]
        return self.first_class[run] + offset // self.sizes[run]


class Column:
    """A named column of values with cached ground-truth statistics.

    ``values`` may be omitted only when ``_class_sizes`` is given: the
    column then holds its class sizes, in ascending order, and no rows
    (see :meth:`from_class_sizes`).
    """

    def __init__(
        self,
        name: str,
        values: npt.ArrayLike | None = None,
        _class_sizes: npt.NDArray[np.int64] | None = None,
    ) -> None:
        self.name = name
        self._class_sizes = _class_sizes
        self._population_profile: FrequencyProfile | None = None
        self._size_runs: SizeRuns | None = None
        self._values: npt.NDArray[Any] | None = None
        if values is None:
            if _class_sizes is None:
                raise DataGenerationError("a column needs its values or class sizes")
            sizes = np.sort(np.asarray(_class_sizes, dtype=np.int64))
            if sizes.ndim != 1 or sizes.size == 0 or not (sizes > 0).all():
                raise DataGenerationError("class sizes must be positive and non-empty")
            self._class_sizes = sizes
            self._n_rows = int(sizes.sum())
            return
        array = np.asarray(values)
        if array.ndim != 1:
            raise InvalidParameterError(
                f"column {self.name!r} must be 1-D, got shape {array.shape}"
            )
        if array.size == 0:
            raise InvalidParameterError(f"column {self.name!r} must be non-empty")
        self._values = array
        self._n_rows = int(array.size)

    @classmethod
    def from_class_sizes(cls, class_sizes: npt.ArrayLike, name: str) -> Column:
        """A column that holds only its class sizes: no rows, no random stream."""
        return cls(name, _class_sizes=np.asarray(class_sizes, dtype=np.int64))

    @property
    def size_only(self) -> bool:
        """Whether the column holds only its class sizes, not its rows."""
        return self._values is None

    @property
    def values(self) -> npt.NDArray[Any]:
        """The column's rows; a size-only column has none and raises."""
        if self._values is None:
            raise InvalidParameterError(
                f"column {self.name!r} holds only its class sizes; build it "
                "with shuffled_from_class_sizes to sample or read its rows"
            )
        return self._values

    @property
    def n_rows(self) -> int:
        """Number of rows, ``n``."""
        return self._n_rows

    @property
    def class_sizes(self) -> npt.NDArray[np.int64]:
        """Per-distinct-value multiplicities ``n_j`` (computed once)."""
        if self._class_sizes is None:
            _, counts = np.unique(self.values, return_counts=True)
            self._class_sizes = counts
        return self._class_sizes

    @property
    def distinct_count(self) -> int:
        """The exact number of distinct values ``D``."""
        return int(self.class_sizes.size)

    def size_runs(self) -> SizeRuns:
        """The column's classes in runs of equal size, built once.

        On a size-only column the sizes ascend, so there is one run per
        distinct size: a handful of entries where the class layout
        ``np.repeat(np.arange(D), class_sizes)`` would take ``n``.
        """
        if self._size_runs is None:
            sizes = self.class_sizes
            first_class = np.flatnonzero(np.diff(sizes, prepend=0))
            run_sizes = sizes[first_class]
            rows = run_sizes * np.diff(first_class, append=sizes.size)
            self._size_runs = SizeRuns(
                sizes=run_sizes,
                first_class=first_class,
                first_row=np.cumsum(rows) - rows,
            )
        return self._size_runs

    def population_profile(self) -> FrequencyProfile:
        """Frequency profile of the *entire* column (ground truth spectrum).

        Computed once and cached; the single ``np.unique`` over
        :attr:`class_sizes` replaces the historical per-multiplicity
        Python loop.  Frequencies enter the profile in first-encounter
        order of the class sizes — exactly the insertion order
        ``from_multiplicities`` would produce — so the cached profile is
        indistinguishable from the loop-built one.
        """
        if self._population_profile is None:
            freqs, first, counts = np.unique(
                self.class_sizes, return_index=True, return_counts=True
            )
            order = np.argsort(first)
            self._population_profile = FrequencyProfile(
                dict(
                    zip(freqs[order].tolist(), counts[order].tolist())
                )
            )
        return self._population_profile

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Column(name={self.name!r}, n_rows={self.n_rows})"
