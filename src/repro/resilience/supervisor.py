"""Supervision policy for sweeps: retries, backoff, timeouts, gaps.

A supervised sweep (a :func:`repro.experiments.executor.run_sweep`
inside a :func:`~repro.experiments.executor.sweep_context`) consults
its :class:`RetryPolicy` when a task attempt fails: bounded retries with
exponential backoff and *decorrelated jitter*, a progress timeout for
hung workers, and — when the budget is exhausted — a
:class:`PartialSweepResult` that names the exact missing grid points
instead of losing the completed ones.

Determinism: a retried task reruns on its original spawn-key seed, so a
retry that succeeds produces the byte-identical result the first attempt
would have.  Backoff jitter is drawn from its own SeedSequence domain
(:data:`JITTER_DOMAIN`, disjoint from the executor's task/data domains
and the fault domain), so pacing the retries never moves an experiment's
random streams.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import InvalidParameterError

__all__ = [
    "JITTER_DOMAIN",
    "RetryPolicy",
    "PartialSweepResult",
    "jitter_delays",
]

#: Spawn-key namespace for backoff jitter draws.
JITTER_DOMAIN = 0x117E4


@dataclass(frozen=True)
class RetryPolicy:
    """How a supervised sweep responds to task failures.

    ``retries`` is the number of *additional* attempts after the first
    (0 = fail fast).  ``timeout`` is a progress watchdog for pooled
    sweeps: when no task completes for that many seconds, outstanding
    workers are presumed hung, the pool is rebuilt, and the running
    tasks burn one retry each (None = wait forever).  ``base_delay`` /
    ``max_delay`` bound the decorrelated-jitter backoff between retries.
    """

    retries: int = 2
    timeout: float | None = None
    base_delay: float = 0.05
    max_delay: float = 2.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise InvalidParameterError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise InvalidParameterError(
                f"timeout must be positive (or None), got {self.timeout}"
            )
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise InvalidParameterError(
                f"need 0 <= base_delay <= max_delay, got "
                f"{self.base_delay} / {self.max_delay}"
            )


def jitter_delays(seed: int, index: int, policy: RetryPolicy) -> Iterator[float]:
    """Decorrelated-jitter backoff delays for retries of one grid point.

    The classic scheme (``sleep = min(cap, uniform(base, prev * 3))``)
    drawn from a generator seeded under :data:`JITTER_DOMAIN` by
    ``(seed, index)`` — deterministic per point, independent of every
    experiment stream.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(JITTER_DOMAIN, index))
    )
    previous = policy.base_delay
    while True:
        previous = min(
            policy.max_delay,
            float(rng.uniform(policy.base_delay, max(previous * 3, policy.base_delay))),
        )
        yield previous


class PartialSweepResult(Sequence[Any]):
    """A sweep that completed some — not all — of its grid points.

    Behaves as a sequence of per-point results with ``None`` at the
    gaps, and reports exactly which indices are missing and why.  The
    completed points were journaled (when a journal was active), so a
    follow-up ``resume`` run pays only for the gaps.
    """

    def __init__(
        self,
        results: list[Any],
        missing: Sequence[int],
        errors: dict[int, str] | None = None,
    ) -> None:
        self.results = results
        self.missing = tuple(missing)
        self.errors = dict(errors or {})

    @property
    def complete(self) -> bool:
        """True when every grid point has a result."""
        return not self.missing

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: Any) -> Any:
        return self.results[index]

    def describe(self) -> str:
        """One line naming the gaps, for logs and error messages."""
        done = len(self.results) - len(self.missing)
        if self.complete:
            return f"complete: {done}/{len(self.results)} points"
        reasons = "; ".join(
            f"#{index}: {self.errors.get(index, 'unknown')}"
            for index in self.missing
        )
        return (
            f"{done}/{len(self.results)} points complete; "
            f"missing {list(self.missing)} ({reasons})"
        )

    def __repr__(self) -> str:
        return f"PartialSweepResult({self.describe()})"
