"""Reduction of a row column's sampling trials to frequency profiles.

:meth:`~repro.sampling.base.RowSampler.profile_batch` draws a row
column's trials one :meth:`~repro.sampling.base.RowSampler._draw` at a
time and reduces them here, one :meth:`FrequencyProfile.from_sample`
per trial.  A single batched pass over all trials measured slower at
every sample size the exhibits draw but the smallest
(docs/performance.md, "Row samples").  The reduction is its own
function because the benchmark's tracer (bench/tracer.py) times it as
the ``sampling.reduce`` layer.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.frequency.profile import FrequencyProfile

__all__ = ["profiles_from_samples"]


def profiles_from_samples(
    samples: Sequence[npt.NDArray[Any]],
) -> list[FrequencyProfile]:
    """One profile per trial: :meth:`FrequencyProfile.from_sample` of each array.

    ``samples`` holds one 1-D array of sampled values per trial; the
    arrays may differ in length (Bernoulli trials do) and in dtype.  A
    non-1-D array raises :class:`~repro.errors.InvalidSampleError`.
    """
    return [FrequencyProfile.from_sample(np.asarray(sample)) for sample in samples]
