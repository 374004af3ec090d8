"""Deterministic fault injection (``REPRO_FAULTS``).

The chaos test suite and the CI chaos-smoke job need failures that are
*reproducible*: the same spec and fault seed must kill the same task
attempts on every run, or a "recovered bit-identically" assertion means
nothing.  This module turns a spec string into a seeded fault plan that
instrumented sites consult:

Grammar (clauses joined by ``;``)::

    REPRO_FAULTS="sweep.point:crash@0.1;sampler.profile:delay@0.05:0.01"

    clause  := site ":" kind "@" probability [":" seconds]
    site    := instrumented site name (see SITES)
    kind    := "crash" | "kill" | "delay" | "hang"
    probability := float in [0, 1]
    seconds := duration for delay/hang (defaults 0.01 / 30.0)

Kinds:

* ``crash`` — raise :class:`~repro.errors.InjectedFaultError` (an
  ordinary task failure; exercised by the retry path);
* ``kill``  — ``os._exit(70)`` the current process (a hard worker
  death; exercises ``BrokenProcessPool`` recovery — never use inline);
* ``delay`` — sleep ``seconds`` (slows a site; used by the CI smoke job
  to make a mid-run SIGKILL land predictably);
* ``hang``  — sleep ``seconds`` with a long default (exercises the
  supervisor's progress timeout).

Determinism: each consult draws from a generator seeded by
``SeedSequence(entropy=fault_seed, spawn_key=(FAULT_DOMAIN, site, key,
attempt))``.  ``FAULT_DOMAIN`` is disjoint from the executor's task and
data domains — fault draws can never perturb an experiment's random
streams.  Sites with a natural key (a sweep point's index) fire
identically across runs, worker counts, and resume boundaries; keyless
sites fall back to a per-process invocation counter (deterministic for
a serial run, scheduling-dependent under a pool — fine for chaos tests,
which key their assertions on the executor boundary).

With ``REPRO_FAULTS`` unset the plan is disabled and every consult is a
dict lookup returning immediately — the production overhead budget.
"""

from __future__ import annotations

import logging
import os
import time
import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import InjectedFaultError, InvalidParameterError
from repro.obs.recorder import OBS

__all__ = [
    "ENV_FAULTS",
    "ENV_FAULT_SEED",
    "FAULT_DOMAIN",
    "KINDS",
    "SITES",
    "FaultRule",
    "FaultPlan",
    "parse_faults",
    "fault_plan",
    "reload_faults",
]

#: Environment variable holding the fault spec (empty/unset = no faults).
ENV_FAULTS = "REPRO_FAULTS"

#: Root entropy for fault draws (default 0); lets chaos suites explore
#: several deterministic failure schedules.
ENV_FAULT_SEED = "REPRO_FAULT_SEED"

#: Spawn-key namespace for fault draws — disjoint from the executor's
#: TASK_DOMAIN and the supervisor's JITTER_DOMAIN.
FAULT_DOMAIN = 0xFA17

#: Recognized fault kinds.
KINDS: tuple[str, ...] = ("crash", "kill", "delay", "hang")

#: Instrumented sites (documented surface; unknown sites are rejected so
#: a typo'd spec fails loudly instead of silently injecting nothing).
SITES: tuple[str, ...] = (
    "sweep.point",
    "sampler.profile",
    "harness.evaluate",
    "db.scan",
    "journal.write",
)

_DEFAULT_SECONDS = {"delay": 0.01, "hang": 30.0}

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FaultRule:
    """One parsed clause: what to inject at a site, and how often."""

    site: str
    kind: str
    probability: float
    seconds: float


class FaultPlan:
    """A seeded set of fault rules that instrumented sites consult."""

    def __init__(self, rules: dict[str, FaultRule], seed: int = 0) -> None:
        self._rules = rules
        self._seed = seed
        self._counters: dict[str, int] = {}
        #: False when no rules are loaded; sites may check this first.
        self.enabled = bool(rules)

    def rule_for(self, site: str) -> FaultRule | None:
        """The rule registered for ``site`` (None when uninstrumented)."""
        return self._rules.get(site)

    def consult(self, site: str, key: int | None = None, attempt: int = 0) -> None:
        """Maybe inject a fault at ``site`` (no-op without a rule).

        ``key`` identifies the unit of work (a sweep point's index) so
        the decision is reproducible across processes and resumes;
        ``attempt`` distinguishes retries, so a crash that fired on
        attempt 0 draws fresh on attempt 1 and a retried task can
        succeed.  Keyless sites use a per-process invocation counter.
        """
        rule = self._rules.get(site)
        if rule is None:
            return
        if key is None:
            key = self._counters[site] = self._counters.get(site, -1) + 1
        if self._draw(site, key, attempt) >= rule.probability:
            return
        if OBS.enabled:
            OBS.add("resilience.faults_injected")
            OBS.add(f"resilience.faults_injected.{site}")
        _log.debug(
            "injecting %s at %s (key=%s attempt=%d)", rule.kind, site, key, attempt
        )
        if rule.kind == "crash":
            raise InjectedFaultError(
                f"injected crash at {site} (key={key}, attempt={attempt})"
            )
        if rule.kind == "kill":
            os._exit(70)
        time.sleep(rule.seconds)  # delay / hang

    def _draw(self, site: str, key: int, attempt: int) -> float:
        sequence = np.random.SeedSequence(
            entropy=self._seed,
            spawn_key=(FAULT_DOMAIN, zlib.crc32(site.encode()), key, attempt),
        )
        return float(np.random.default_rng(sequence).random())


def parse_faults(spec: str, seed: int = 0) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec string into a :class:`FaultPlan`."""
    rules: dict[str, FaultRule] = {}
    for clause in filter(None, (part.strip() for part in spec.split(";"))):
        site, _, action = clause.partition(":")
        kind, _, rate = action.partition("@")
        if not site or not kind or not rate:
            raise InvalidParameterError(
                f"bad REPRO_FAULTS clause {clause!r}; expected "
                "site:kind@probability[:seconds]"
            )
        if site not in SITES:
            raise InvalidParameterError(
                f"unknown fault site {site!r}; known sites: {', '.join(SITES)}"
            )
        if kind not in KINDS:
            raise InvalidParameterError(
                f"unknown fault kind {kind!r}; known kinds: {', '.join(KINDS)}"
            )
        rate_text, _, seconds_text = rate.partition(":")
        try:
            probability = float(rate_text)
        except ValueError:
            raise InvalidParameterError(
                f"bad fault probability {rate_text!r} in {clause!r}"
            ) from None
        if not 0.0 <= probability <= 1.0:
            raise InvalidParameterError(
                f"fault probability must be in [0, 1], got {probability}"
            )
        seconds = _DEFAULT_SECONDS.get(kind, 0.0)
        if seconds_text:
            try:
                seconds = float(seconds_text)
            except ValueError:
                raise InvalidParameterError(
                    f"bad fault duration {seconds_text!r} in {clause!r}"
                ) from None
            if seconds < 0:
                raise InvalidParameterError(
                    f"fault duration must be >= 0, got {seconds}"
                )
        rules[site] = FaultRule(site, kind, probability, seconds)
    return FaultPlan(rules, seed=seed)


_PLAN: FaultPlan | None = None


def fault_plan() -> FaultPlan:  # reprolint: disable=R1101 - lazy init is the documented contract: spawned workers re-parse REPRO_FAULTS from the inherited environment, so every process converges on the same plan
    """The process-wide plan parsed from ``REPRO_FAULTS`` (cached).

    Pool workers forked from a parent inherit the parsed plan; spawned
    workers re-parse the inherited environment on first consult.
    """
    global _PLAN
    if _PLAN is None:
        spec = os.environ.get(ENV_FAULTS, "")
        raw_seed = os.environ.get(ENV_FAULT_SEED, "").strip()
        try:
            seed = int(raw_seed) if raw_seed else 0
        except ValueError:
            raise InvalidParameterError(
                f"{ENV_FAULT_SEED} must be an integer, got {raw_seed!r}"
            ) from None
        _PLAN = parse_faults(spec, seed=seed)
    return _PLAN


def reload_faults() -> FaultPlan:
    """Drop the cached plan and re-read the environment (tests)."""
    global _PLAN
    _PLAN = None
    return fault_plan()
