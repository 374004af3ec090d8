"""One sweep point's trial profiles, as handed to every estimator.

``harness.evaluate_column`` draws the ``T`` trial profiles of a grid
point, packs them with :meth:`FrequencyProfileBatch.from_profiles`, and
gives the same batch to each estimator's
:meth:`~repro.core.base.DistinctValueEstimator.estimate_batch`, which
estimates one profile at a time.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.frequency.profile import FrequencyProfile

__all__ = ["FrequencyProfileBatch"]


class FrequencyProfileBatch(tuple[FrequencyProfile, ...]):
    """The trial profiles of one sweep point, in trial order."""

    __slots__ = ()

    @classmethod
    def from_profiles(
        cls, profiles: Iterable[FrequencyProfile]
    ) -> "FrequencyProfileBatch":
        """Pack profiles in order."""
        # A named step of its own because the benchmark's traced pass
        # (bench/tracer.py) wraps it to time the frequency.batch layer.
        return cls(profiles)
