"""Frequency-of-frequencies profiles.

Every estimator in this library is a pure function of a sample's
*frequency profile*: the vector ``f_i`` counting how many distinct values
occur exactly ``i`` times in the sample (Section 2 of the paper).  The
paper's modified SQL Server returned exactly this information — ``d``,
all ``f_i``, and the sample skew — once a sample was gathered; this module
is the library's equivalent of that server hook.

The profile is stored sparsely (``{frequency: count}``) because real
profiles are sparse: a sample of a million rows over a heavy-tailed column
typically has a handful of occupied frequencies.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.contracts import ensures, requires
from repro.errors import InvalidSampleError

__all__ = ["FrequencyProfile"]


def _validated_counts(counts: Mapping[int, int]) -> dict[int, int]:
    """Copy ``counts`` into a plain dict, dropping zeros and validating.

    A frequency or count that is not integral is rejected, not truncated;
    integral floats, numpy integers and bools pass as their ``int``.
    """
    clean: dict[int, int] = {}
    for frequency, count in counts.items():
        freq = int(frequency)
        cnt = int(count)
        if freq <= 0 or freq != frequency:
            raise InvalidSampleError(
                f"frequencies must be positive integers, got {frequency!r}"
            )
        if cnt < 0 or cnt != count:
            raise InvalidSampleError(
                f"f_{freq} must be a non-negative integer, got {count!r}"
            )
        if cnt > 0:
            clean[freq] = clean.get(freq, 0) + cnt
    return clean


@dataclass(frozen=True)
class FrequencyProfile:
    """The vector ``f_i`` of a sample, stored sparsely.

    Attributes
    ----------
    counts:
        Mapping ``{i: f_i}`` with ``f_i > 0`` only for occupied
        frequencies ``i >= 1``.

    Derived quantities follow the paper's Section 2 notation:
    ``d = sum_i f_i`` is the number of distinct values in the sample and
    ``r = sum_i i * f_i`` is the sample size.
    """

    counts: Mapping[int, int]
    _sorted_freqs: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _distinct: int = field(init=False, repr=False, compare=False)
    _sample_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        clean = _validated_counts(self.counts)
        object.__setattr__(self, "counts", clean)
        object.__setattr__(self, "_sorted_freqs", tuple(sorted(clean)))
        # The summary statistics are pure functions of the (now
        # immutable) counts; estimators read them many times per call,
        # so they are computed once here.
        object.__setattr__(self, "_distinct", sum(clean.values()))
        object.__setattr__(
            self, "_sample_size", sum(i * c for i, c in clean.items())
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_sample(cls, values: Iterable[Any]) -> "FrequencyProfile":
        """Build the profile of a concrete sample of values.

        ``values`` may be any iterable of hashable items or a numpy array
        (which is handled with a vectorized path).
        """
        if isinstance(values, np.ndarray):
            if values.ndim != 1:
                raise InvalidSampleError(
                    f"sample arrays must be 1-D, got shape {values.shape}"
                )
            _, multiplicities = np.unique(values, return_counts=True)
            freqs, counts = np.unique(multiplicities, return_counts=True)
            return cls(dict(zip(freqs.tolist(), counts.tolist())))
        multiplicity = Counter(values)
        return cls(Counter(multiplicity.values()))

    @classmethod
    def from_multiplicities(cls, multiplicities: Iterable[int]) -> "FrequencyProfile":
        """Build the profile from per-value occurrence counts.

        Example: ``from_multiplicities([3, 1, 1])`` describes a sample with
        one value occurring 3 times and two singletons, i.e.
        ``f_1 = 2, f_3 = 1``.  The counting runs in C
        (:class:`~collections.Counter`), so only the distinct
        multiplicities are validated here, in the order they first occur:
        the error names the input's first offender, and the profile's
        frequencies keep that order.
        """
        counter: Counter[int] = Counter(multiplicities)
        for multiplicity in counter:
            mult = int(multiplicity)
            if mult <= 0:
                raise InvalidSampleError(
                    f"multiplicities must be positive, got {multiplicity!r}"
                )
            if mult != multiplicity:
                raise InvalidSampleError(
                    f"multiplicities must be integers, got {multiplicity!r}"
                )
        return cls(counter)

    @classmethod
    def empty(cls) -> "FrequencyProfile":
        """The profile of an empty sample (``r = d = 0``)."""
        return cls({})

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def f(self, i: int) -> int:
        """``f_i``: number of values occurring exactly ``i`` times."""
        return self.counts.get(int(i), 0)

    @property
    def f1(self) -> int:
        """Number of singleton values in the sample."""
        return self.f(1)

    @property
    def f2(self) -> int:
        """Number of doubleton values in the sample."""
        return self.f(2)

    @property
    def distinct(self) -> int:
        """``d``: number of distinct values observed in the sample."""
        return self._distinct

    @property
    def sample_size(self) -> int:
        """``r``: total number of sampled rows, ``sum_i i * f_i``."""
        return self._sample_size

    @property
    def max_frequency(self) -> int:
        """Largest occupied frequency, or 0 for an empty profile."""
        return self._sorted_freqs[-1] if self._sorted_freqs else 0

    @property
    def occupied_frequencies(self) -> tuple[int, ...]:
        """Sorted tuple of frequencies ``i`` with ``f_i > 0``."""
        return self._sorted_freqs

    def __iter__(self) -> Iterator[tuple[int, int]]:
        """Iterate ``(i, f_i)`` pairs in increasing frequency order."""
        for freq in self._sorted_freqs:
            yield freq, self.counts[freq]

    def __bool__(self) -> bool:
        return bool(self.counts)

    def __len__(self) -> int:
        """Number of occupied frequencies (sparsity of the profile)."""
        return len(self.counts)

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------
    def tail_distinct(self, minimum_frequency: int) -> int:
        """Number of distinct values occurring at least ``minimum_frequency`` times."""
        return sum(c for i, c in self.counts.items() if i >= minimum_frequency)

    def tail_rows(self, minimum_frequency: int) -> int:
        """Number of sampled rows covered by values occurring >= ``minimum_frequency`` times."""
        return sum(i * c for i, c in self.counts.items() if i >= minimum_frequency)

    def factorial_moment(self, order: int) -> int:
        """``sum_i i (i-1) ... (i-order+1) f_i`` — used by CV estimators."""
        if order < 1:
            raise InvalidSampleError(f"moment order must be >= 1, got {order}")
        total = 0
        for i, c in self.counts.items():
            term = 1
            for k in range(order):
                term *= i - k
            if term > 0:
                total += term * c
        return total

    # f_1 <= r = sum_i i f_i holds for every valid profile; stating it as
    # a contract lets the prover bound the coverage for callers.
    @requires("self.f1 >= 0", "self.f1 <= self.sample_size", "self.sample_size >= 0")
    @ensures("result >= 0.0", "result <= 1.0")
    def sample_coverage(self) -> float:
        """Good–Turing estimate of sample coverage, ``1 - f_1 / r``.

        Coverage is the fraction of the *table* occupied by values that
        appear in the sample; it drives the Chao–Lee estimator and the
        coefficient-of-variation machinery of Haas–Stokes.
        Returns 0.0 for an empty sample.
        """
        r = self.sample_size
        if r == 0:
            return 0.0
        return 1.0 - self.f1 / r

    def truncate(self, max_frequency: int) -> "FrequencyProfile":
        """Profile restricted to values occurring at most ``max_frequency`` times.

        Used by the DUJ2A estimator, which removes high-frequency classes
        before applying the second-order jackknife.
        """
        kept = {i: c for i, c in self.counts.items() if i <= max_frequency}
        return FrequencyProfile(kept)

    def merge(self, other: "FrequencyProfile") -> "FrequencyProfile":
        """Profile of the disjoint union of two samples over disjoint value sets.

        Note this is only meaningful when the two samples cannot share
        values (e.g. partitioned domains); merging samples over a shared
        domain requires the raw values, not the profiles.
        """
        merged = Counter(self.counts)
        merged.update(other.counts)
        return FrequencyProfile(merged)

    def to_arrays(self) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
        """Return ``(frequencies, counts)`` as aligned int64 arrays, sorted."""
        freqs = np.array(self._sorted_freqs, dtype=np.int64)
        counts = np.array([self.counts[i] for i in self._sorted_freqs], dtype=np.int64)
        return freqs, counts

    def to_dense(self, length: int | None = None) -> npt.NDArray[np.int64]:
        """Dense ``f`` vector where ``vector[i-1] = f_i``.

        ``length`` defaults to :attr:`max_frequency`; it must be at least
        that large.
        """
        max_freq = self.max_frequency
        if length is None:
            length = max_freq
        if length < max_freq:
            raise InvalidSampleError(
                f"dense length {length} < max occupied frequency {max_freq}"
            )
        dense = np.zeros(length, dtype=np.int64)
        for i, c in self.counts.items():
            dense[i - 1] = c
        return dense

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"f{i}={c}" for i, c in self)
        return f"FrequencyProfile(r={self.sample_size}, d={self.distinct}, {inner})"
