"""Sampler interface and shared helpers.

The estimators assume "a random sample of r tuples chosen uniformly at
random from the table" (paper §2), with or without replacement.  The
samplers in this package produce such samples from a column held as a
1-D numpy array (or a :class:`~repro.data.column.Column` holding one);
they are the library's stand-in for the sampling operators of Olken's
thesis and the SQL Server sampling hook the paper used (DESIGN.md §3).

A column that holds only its class sizes has no rows to draw.  A
scheme whose sample profile has a law in the class sizes alone
(``count_domain``) draws its profiles from the sizes in
:meth:`RowSampler.profile_batch`; every other scheme, and every
single-sample method, refuses such a column.

Every sampler takes an explicit :class:`numpy.random.Generator` so that
experiments are reproducible bit-for-bit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.data.column import Column
from repro.errors import InvalidParameterError
from repro.frequency.profile import FrequencyProfile
from repro.obs.recorder import OBS
from repro.sampling.batch import profiles_from_samples

__all__ = ["RowSampler", "resolve_sample_size", "as_column"]


def as_column(values: npt.ArrayLike | Column) -> npt.NDArray[Any]:
    """Coerce ``values`` to a 1-D numpy array, validating the shape.

    A :class:`~repro.data.column.Column` yields its rows; a size-only
    column has none and raises.
    """
    column = np.asarray(values.values if isinstance(values, Column) else values)
    if column.ndim != 1:
        raise InvalidParameterError(f"columns must be 1-D, got shape {column.shape}")
    if column.size == 0:
        raise InvalidParameterError("columns must be non-empty")
    return column


def resolve_sample_size(
    population_size: int,
    size: int | None = None,
    fraction: float | None = None,
    allow_oversample: bool = False,
) -> int:
    """Turn a ``size`` or ``fraction`` specification into a concrete ``r``.

    Exactly one of ``size`` and ``fraction`` must be given.  Fractions
    are rounded to the nearest row and clamped into ``[1, n]``.  A
    ``size`` above ``n`` is allowed only when ``allow_oversample`` is
    set (with-replacement schemes can legitimately draw more rows than
    the table holds).
    """
    if (size is None) == (fraction is None):
        raise InvalidParameterError("specify exactly one of size= or fraction=")
    if size is not None:
        r = int(size)
        upper = None if allow_oversample else population_size
        if r < 1 or (upper is not None and r > upper):
            raise InvalidParameterError(
                f"sample size must be in [1, {upper}], got {size}"
            )
        return r
    assert fraction is not None  # the exactly-one check above guarantees it
    if not 0.0 < fraction <= 1.0:
        raise InvalidParameterError(f"fraction must be in (0, 1], got {fraction}")
    return min(population_size, max(1, round(fraction * population_size)))


class RowSampler(ABC):
    """Draws a random sample of rows from a column.

    Subclasses define :meth:`_draw`; the public :meth:`sample` handles
    size resolution and validation, and :meth:`profile` additionally
    reduces the sample to its frequency profile — the quantity every
    estimator consumes.
    """

    #: Stable identifier used in experiment configs and reports.
    name: str = "base"

    #: Whether the scheme guarantees no row is inspected twice.
    without_replacement: bool = True

    #: Whether :meth:`profile_batch` can draw profiles of a size-only
    #: column from its class sizes (:meth:`_profiles_from_sizes`).
    count_domain: bool = False

    def sample(
        self,
        column: npt.ArrayLike | Column,
        rng: np.random.Generator,
        size: int | None = None,
        fraction: float | None = None,
    ) -> npt.NDArray[Any]:
        """Draw a sample of rows from ``column``."""
        data = as_column(column)
        return self._draw(data, self._sample_size(data.size, size, fraction), rng)

    def profile(
        self,
        column: npt.ArrayLike | Column,
        rng: np.random.Generator,
        size: int | None = None,
        fraction: float | None = None,
    ) -> FrequencyProfile:
        """Draw a sample and return its frequency profile."""
        with OBS.span(f"sample.{self.name}", trials=1):
            profile = FrequencyProfile.from_sample(
                self.sample(column, rng, size=size, fraction=fraction)
            )
        if OBS.enabled:
            OBS.add("sample.trials", 1)
            OBS.add("sample.rows_sampled", profile.sample_size)
        return profile

    def profile_batch(
        self,
        column: npt.ArrayLike | Column,
        rng: np.random.Generator,
        trials: int,
        size: int | None = None,
        fraction: float | None = None,
    ) -> list[FrequencyProfile]:
        """Draw ``trials`` independent samples and return their profiles.

        Semantically identical to calling :meth:`profile` ``trials``
        times with the same generator — including the order in which the
        random stream is consumed, so the batched and serial paths
        produce bit-for-bit equal profiles — but samplers that implement
        :meth:`_draw_batch` amortize the per-trial reduction into a
        single vectorized pass over all trials.  Samplers that do not
        (any custom subclass) fall back to the serial loop.

        A size-only :class:`~repro.data.column.Column` is sampled in the
        count domain when the scheme supports it (``count_domain``):
        each profile has the law a sample of the column's rows would
        have, drawn from the class sizes alone, and the span records
        which draw ran as its ``path`` attribute.  Any other scheme
        raises on such a column.
        """
        if trials < 1:
            raise InvalidParameterError(f"trials must be >= 1, got {trials}")
        if isinstance(column, Column) and column.size_only and self.count_domain:
            r = self._sample_size(column.n_rows, size, fraction)
            with OBS.span(
                f"sample.{self.name}", trials=trials, requested_size=r
            ) as span:
                path, profiles = self._profiles_from_sizes(column, r, rng, trials)
                if span.id is not None:
                    span.attrs["path"] = path
            if OBS.enabled:
                OBS.add(f"sample.path.{path}", trials)
        else:
            data = as_column(column)
            r = self._sample_size(data.size, size, fraction)
            with OBS.span(
                f"sample.{self.name}", trials=trials, requested_size=r
            ) as span:
                batch = self._draw_batch(data, r, rng, trials)
                if batch is None:
                    if span.id is not None:
                        span.attrs["path"] = "serial"
                    profiles = [
                        FrequencyProfile.from_sample(self._draw(data, r, rng))
                        for _ in range(trials)
                    ]
                else:
                    profiles = profiles_from_samples(batch)
        if OBS.enabled:
            OBS.add("sample.trials", trials)
            OBS.add("sample.rows_sampled", sum(p.sample_size for p in profiles))
        return profiles

    def _sample_size(
        self, population_size: int, size: int | None, fraction: float | None
    ) -> int:
        return resolve_sample_size(
            population_size,
            size=size,
            fraction=fraction,
            allow_oversample=not self.without_replacement,
        )

    @abstractmethod
    def _draw(
        self, column: npt.NDArray[Any], r: int, rng: np.random.Generator
    ) -> npt.NDArray[Any]:
        """Draw exactly ``r`` rows (or approximately, for Bernoulli) from ``column``."""

    def _draw_batch(
        self,
        column: npt.NDArray[Any],
        r: int,
        rng: np.random.Generator,
        trials: int,
    ) -> Sequence[npt.NDArray[Any]] | None:
        """Draw ``trials`` samples for the batched profile reduction.

        Returns one array of sampled values per trial, or ``None`` to
        request the serial fallback.  Implementations MUST consume
        ``rng`` exactly as ``trials`` successive :meth:`_draw` calls
        would, so that batched and serial runs stay interchangeable bit
        for bit under a fixed seed.
        """
        return None

    def _profiles_from_sizes(
        self, column: Column, r: int, rng: np.random.Generator, trials: int
    ) -> tuple[str, list[FrequencyProfile]]:
        """Draw ``trials`` profiles of a size-only column: ``(path, profiles)``.

        ``path`` names the draw that ran.  Only ``count_domain`` schemes
        implement this; :meth:`profile_batch` never calls it otherwise.
        """
        raise NotImplementedError(f"{type(self).__name__} needs the column's rows")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
