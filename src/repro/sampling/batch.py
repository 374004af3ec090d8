"""Vectorized reduction of many sampling trials to frequency profiles.

The measurement harness draws ``T`` independent samples per
configuration and needs one :class:`~repro.frequency.profile.FrequencyProfile`
per trial.  Reducing each sample separately costs ``T`` sorts plus ``T``
rounds of Python dict handling; this module validates the batch once and
hands the actual counting to the single-pass reduction kernel of
:mod:`repro.sampling.kernels`.

The result is exactly ``[FrequencyProfile.from_sample(s) for s in
samples]``: all counting is integer-exact and the kernel emits histogram
keys in the same ascending ``(trial, frequency)`` order, so the batched
reduction is interchangeable with the serial one bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.errors import InvalidSampleError
from repro.frequency.profile import FrequencyProfile
from repro.sampling.kernels import reduce_samples

__all__ = ["profiles_from_samples"]


def profiles_from_samples(
    samples: Sequence[npt.NDArray[Any]],
) -> list[FrequencyProfile]:
    """Reduce a batch of sample arrays to one profile per trial.

    ``samples`` holds one 1-D array of sampled values per trial; the
    arrays may differ in length (Bernoulli trials do).  Returns the
    trials' profiles in order, equal to calling
    :meth:`FrequencyProfile.from_sample` on each array.
    """
    arrays: list[npt.NDArray[Any]] = []
    for sample in samples:
        array = np.asarray(sample)
        if array.ndim != 1:
            raise InvalidSampleError(
                f"sample arrays must be 1-D, got shape {array.shape}"
            )
        arrays.append(array)
    if not arrays:
        return []
    if sum(a.size for a in arrays) == 0:
        return [FrequencyProfile.empty() for _ in arrays]
    return [FrequencyProfile(c) for c in reduce_samples(arrays)]
