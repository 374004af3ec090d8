"""The Column abstraction shared by generators, the DB substrate, and experiments.

A column is a named 1-D array of values together with cached ground
truth (the true distinct count and class sizes) so experiments never
recompute exact answers per trial.

A column may instead hold only its size spectrum
(:meth:`Column.from_class_sizes`): which class sizes occur and how
often, as :class:`SizeRuns`.  Under the paper's protocol, a uniform
sample without replacement from a randomly laid-out column, the
per-class sample counts depend on the class sizes alone, so the
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

__all__ = ["Column", "SizeRuns", "validated_class_sizes"]


def validated_class_sizes(class_sizes: npt.ArrayLike) -> npt.NDArray[np.int64]:
    """``class_sizes`` as ``int64``; empty, non-positive or fractional sizes raise.

    A fractional size is an error, not a size to truncate; integral
    floats and numpy integers pass.  An ``int64`` array is returned
    as is, without a copy.
    """
    raw = np.asarray(class_sizes)
    if raw.ndim != 1 or raw.size == 0:
        raise DataGenerationError("class sizes must be positive and non-empty")
    if raw.dtype.kind == "f" and not (np.isfinite(raw) & (np.floor(raw) == raw)).all():
        raise DataGenerationError(f"class sizes must be integers, got {raw.dtype}")
    sizes = raw.astype(np.int64, copy=False)
    if not (sizes > 0).all():
        raise DataGenerationError("class sizes must be positive and non-empty")
    return sizes


class SizeRuns(NamedTuple):
    """A column's classes in ascending size, one run per distinct size.

    Run ``g`` holds ``counts[g]`` classes of ``sizes[g]`` rows each, so
    the runs are the column's size spectrum: ``counts[g]`` classes occur
    ``sizes[g]`` times.  Laid out one after another, the run's classes
    are ``first_class[g]`` onwards and its rows start at
    ``first_row[g]``; class ``c`` of the run owns the rows
    ``first_row[g] + (c - first_class[g]) * sizes[g]`` and the next
    ``sizes[g] - 1``.  A uniform sample of row positions has the same
    class counts under any fixed layout, so this stands in for the
    column's rows wherever only class membership matters, in ``G``
    entries where the layout would take ``n``.
    """

    sizes: npt.NDArray[np.int64]
    counts: npt.NDArray[np.int64]
    first_class: npt.NDArray[np.int64]
    first_row: npt.NDArray[np.int64]

    @classmethod
    def of(cls, class_sizes: npt.NDArray[np.int64]) -> SizeRuns:
        """The runs of positive ``int64`` sizes, in any order.

        Each stretch of equal neighbours becomes one ``(size, count)``
        pair, so ordered sizes are read in one pass and never sorted;
        unordered sizes give more pairs, which :meth:`from_spectrum`
        sorts and merges.
        """
        starts = np.concatenate(
            ([0], np.flatnonzero(class_sizes[1:] != class_sizes[:-1]) + 1)
        )
        return cls.from_spectrum(
            class_sizes[starts], np.diff(starts, append=class_sizes.size)
        )

    @classmethod
    def from_spectrum(
        cls, sizes: npt.NDArray[np.int64], counts: npt.NDArray[np.int64]
    ) -> SizeRuns:
        """The runs of ``counts[i]`` classes of ``sizes[i]`` rows each.

        The pairs may come in any order and a size may repeat; the
        counts of a repeated size add up.  One stable sort puts equal
        sizes side by side and ``np.add.reduceat`` sums each stretch.
        """
        order = np.argsort(sizes, kind="stable")
        ordered = sizes[order]
        # Sizes are positive, so a leading 0 opens the first stretch.
        starts = np.flatnonzero(np.diff(ordered, prepend=0))
        distinct_sizes = ordered[starts]
        totals = np.add.reduceat(counts[order], starts)
        rows = distinct_sizes * totals
        return cls(
            sizes=distinct_sizes,
            counts=totals,
            first_class=np.cumsum(totals) - totals,
            first_row=np.cumsum(rows) - rows,
        )

    @property
    def distinct(self) -> int:
        """The number of classes, ``D``."""
        return int(self.counts.sum())

    @property
    def n_rows(self) -> int:
        """The number of rows, ``n``."""
        return int((self.sizes * self.counts).sum())

    def sample_histogram(
        self, positions: npt.NDArray[np.int64]
    ) -> npt.NDArray[np.intp]:
        """How many classes hold each number of the sorted row ``positions``.

        Entry ``k >= 1`` counts the classes that exactly ``k`` positions
        fall in; entry 0 carries no meaning.  One ``searchsorted`` of the
        run starts cuts the positions into runs.  A run of one-row
        classes adds its hits to entry 1 and a run of one class adds a
        single count; only runs of several classes of two or more rows
        map their positions to classes, whose sorted ids then run class
        by class.
        """
        starts = np.searchsorted(positions, self.first_row)
        hits = np.diff(starts, append=positions.size)
        one_row = self.sizes == 1
        one_class = self.counts == 1
        shared = ~(one_row | one_class)
        # Position p of a run lies in class first_class + (p - first_row) // size,
        # that is (p - base) // size with base = first_row - first_class * size.
        sizes = self.sizes[shared]
        base = self.first_row[shared] - self.first_class[shared] * sizes
        classes = (
            positions[np.repeat(shared, hits)] - np.repeat(base, hits[shared])
        ) // np.repeat(sizes, hits[shared])
        ends = np.flatnonzero(classes[1:] != classes[:-1]) + 1
        per_class = np.concatenate(
            (hits[one_class & ~one_row], np.diff(ends, prepend=0, append=classes.size))
        )
        histogram = np.bincount(per_class, minlength=2)
        histogram[1] += hits[one_row].sum()
        return histogram


class Column:
    """A named column of values with cached ground-truth statistics.

    ``values`` may be omitted only when ``_class_sizes`` or
    ``_size_runs`` is given: the column then holds those runs, or the
    :class:`SizeRuns` of those sizes, and no rows (see
    :meth:`from_class_sizes` and :meth:`from_size_runs`).
    """

    def __init__(
        self,
        name: str,
        values: npt.ArrayLike | None = None,
        _class_sizes: npt.NDArray[np.int64] | None = None,
        _size_runs: SizeRuns | None = None,
    ) -> None:
        self.name = name
        self._class_sizes: npt.NDArray[np.int64] | None = None
        self._size_runs: SizeRuns | None = None
        self._values: npt.NDArray[Any] | None = None
        if values is None:
            if _size_runs is None:
                if _class_sizes is None:
                    raise DataGenerationError(
                        "a column needs its values or class sizes"
                    )
                _size_runs = SizeRuns.of(validated_class_sizes(_class_sizes))
            self._size_runs = _size_runs
            self._n_rows = _size_runs.n_rows
            return
        array = np.asarray(values)
        if array.ndim != 1:
            raise InvalidParameterError(
                f"column {self.name!r} must be 1-D, got shape {array.shape}"
            )
        if array.size == 0:
            raise InvalidParameterError(f"column {self.name!r} must be non-empty")
        self._values = array
        self._class_sizes = _class_sizes
        self._n_rows = int(array.size)

    @classmethod
    def from_class_sizes(cls, class_sizes: npt.ArrayLike, name: str) -> Column:
        """A column that holds only its size runs: no rows, no random stream.

        The sizes are reduced to their runs and dropped, so the column
        holds ``G`` entries (one per distinct size) whatever its ``D``.
        """
        return cls(name, _class_sizes=np.asarray(class_sizes))

    @classmethod
    def from_size_runs(cls, runs: SizeRuns, name: str) -> Column:
        """A size-only column that holds ``runs`` as they are.

        For a builder that never holds the class sizes themselves, as
        :func:`~repro.data.synthetic.distinct_size_runs` and
        :func:`~repro.data.zipf.zipf_size_runs` do not.
        """
        return cls(name, _size_runs=runs)

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
        """Per-distinct-value multiplicities ``n_j``.

        A row column computes them once and keeps them.  A size-only
        column expands its runs on every call, in ascending order, and
        keeps nothing.
        """
        if self._values is None:
            runs = self.size_runs()
            return np.repeat(runs.sizes, runs.counts)
        if self._class_sizes is None:
            _, counts = np.unique(self._values, return_counts=True)
            self._class_sizes = counts
        return self._class_sizes

    @property
    def distinct_count(self) -> int:
        """The exact number of distinct values ``D``."""
        if self._values is None:
            return self.size_runs().distinct
        return int(self.class_sizes.size)

    def size_runs(self) -> SizeRuns:
        """The column's :class:`SizeRuns`; a row column builds them on first use."""
        if self._size_runs is None:
            self._size_runs = SizeRuns.of(np.asarray(self.class_sizes, dtype=np.int64))
        return self._size_runs

    def population_profile(self) -> FrequencyProfile:
        """Frequency profile of the *entire* column (ground truth spectrum).

        Read off the size runs: each distinct class size, in ascending
        order, with the number of classes of that size.
        """
        runs = self.size_runs()
        return FrequencyProfile(dict(zip(runs.sizes.tolist(), runs.counts.tolist())))

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Column(name={self.name!r}, n_rows={self.n_rows})"
