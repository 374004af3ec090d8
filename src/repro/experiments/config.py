"""Experiment-wide configuration: the paper's protocol and scale knobs.

The paper's §6 protocol:

* sampling fractions {0.2, 0.4, 0.8, 1.6, 3.2, 6.4}%;
* ten independent samples per configuration, reporting the mean ratio
  error and the standard deviation of the estimates as a fraction of D;
* synthetic tables of one million rows (scale-up experiments vary this);
* the six estimators GEE, AE, HYBGEE, HYBSKEW, HYBVAR, DUJ2A.

Two environment variables rescale everything for quick runs:

* ``REPRO_SCALE`` — integer divisor applied to row counts (default 1,
  i.e. full paper scale);
* ``REPRO_TRIALS`` — trials per configuration (default 10, the paper's).

One more sets the sweep execution engine (see ``docs/performance.md``):

* ``REPRO_WORKERS`` — worker processes for grid sweeps (default 1).
  Every grid point draws from its own spawned stream, so the worker
  count changes scheduling, never a number.

The resilience layer adds four more (read by
:mod:`repro.resilience`, documented in ``docs/robustness.md``):

* ``REPRO_RETRIES`` / ``REPRO_TASK_TIMEOUT`` — retry budget and
  progress timeout for supervised sweeps (either one being set makes
  every sweep supervised);
* ``REPRO_FAULTS`` / ``REPRO_FAULT_SEED`` — deterministic fault
  injection spec and its seed (chaos testing only).
"""

from __future__ import annotations

import os

from repro.errors import InvalidParameterError

__all__ = [
    "SAMPLING_FRACTIONS",
    "SKEW_VALUES",
    "DUPLICATION_FACTORS",
    "PAPER_ROWS",
    "scale_divisor",
    "trials",
    "workers",
    "scaled_rows",
]

#: The paper's six sampling fractions.
SAMPLING_FRACTIONS: tuple[float, ...] = (0.002, 0.004, 0.008, 0.016, 0.032, 0.064)

#: The paper's Zipf skew values.
SKEW_VALUES: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0, 4.0)

#: The paper's duplication factors.
DUPLICATION_FACTORS: tuple[int, ...] = (1, 10, 100, 1000)

#: Default synthetic table size.
PAPER_ROWS = 1_000_000


def _positive_int_env(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise InvalidParameterError(f"{name} must be an integer, got {raw!r}") from None
    if value < 1:
        raise InvalidParameterError(f"{name} must be >= 1, got {value}")
    return value


def scale_divisor() -> int:
    """Row-count divisor from ``REPRO_SCALE`` (1 = full paper scale)."""
    return _positive_int_env("REPRO_SCALE", 1)


def trials() -> int:
    """Trials per configuration from ``REPRO_TRIALS`` (default 10)."""
    return _positive_int_env("REPRO_TRIALS", 10)


def workers() -> int:
    """Sweep worker processes from ``REPRO_WORKERS`` (default 1)."""
    return _positive_int_env("REPRO_WORKERS", 1)


def scaled_rows(rows: int = PAPER_ROWS, keep_divisible_by: int = 1) -> int:
    """Apply the scale divisor to a row count.

    ``keep_divisible_by`` preserves divisibility (e.g. by a duplication
    factor) after scaling so generators stay valid.
    """
    scaled = max(1, rows // scale_divisor())
    if keep_divisible_by > 1:
        scaled = max(keep_divisible_by, scaled - scaled % keep_divisible_by)
    return scaled
