"""repro.resilience — crash-safe sweeps and deterministic chaos.

Three parts (full reference: ``docs/robustness.md``):

* :mod:`repro.resilience.journal` — the append-only, fsync'd checkpoint
  journal that lets a killed sweep resume bit-identically
  (:class:`SweepJournal`), plus :func:`atomic_write`, the
  write-temp-then-rename helper every final artifact goes through;
* :mod:`repro.resilience.supervisor` — :class:`RetryPolicy` (bounded
  retries, decorrelated-jitter backoff, progress timeouts) and
  :class:`PartialSweepResult` (graceful degradation with explicit gap
  reporting);
* :mod:`repro.resilience.faults` — the ``REPRO_FAULTS`` deterministic
  fault-injection framework consulted by instrumented sites.

The executor (:func:`repro.experiments.executor.run_sweep`) threads
these together under ``sweep_context``; ``repro sweep`` is the CLI.
"""

from __future__ import annotations

from repro.resilience.atomic import atomic_write
from repro.resilience.faults import (
    ENV_FAULT_SEED,
    ENV_FAULTS,
    FAULT_DOMAIN,
    FaultPlan,
    FaultRule,
    fault_plan,
    parse_faults,
    reload_faults,
)
from repro.resilience.journal import (
    JOURNAL_SCHEMA,
    SweepJournal,
    sweep_config_hash,
    task_key,
)
from repro.resilience.supervisor import (
    JITTER_DOMAIN,
    PartialSweepResult,
    RetryPolicy,
    jitter_delays,
)

__all__ = [
    "ENV_FAULTS",
    "ENV_FAULT_SEED",
    "FAULT_DOMAIN",
    "JITTER_DOMAIN",
    "JOURNAL_SCHEMA",
    "FaultPlan",
    "FaultRule",
    "PartialSweepResult",
    "RetryPolicy",
    "SweepJournal",
    "atomic_write",
    "fault_plan",
    "jitter_delays",
    "parse_faults",
    "reload_faults",
    "sweep_config_hash",
    "task_key",
]
