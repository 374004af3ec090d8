"""Parallel sweep execution with deterministic seed spawning.

A *sweep* maps a task function over grid points (sampling rates, skews,
row counts, ...).  Every paper sweep runs through :func:`run_sweep`,
under one seeding protocol:

* every grid point ``i`` of a sweep rooted at ``seed`` receives its own
  :class:`numpy.random.SeedSequence` built as
  ``SeedSequence(entropy=seed, spawn_key=(TASK_DOMAIN, i))`` — the
  spawn-key mechanism guarantees the child streams are independent and
  depend only on ``(seed, i)``, never on worker count, scheduling, or
  completion order;
* shared inputs (a column reused by every rate point, a surrogate
  dataset) have no random stream: a sweep column holds only its class
  sizes, a pure function of its specification, so any worker that
  needs the same input builds the same one, and a per-process memo
  (:func:`memoized`) builds it at most once per worker while holding
  one shared input at a time;
* results are collected in submission order, so
  ``run_sweep(fn, points, seed=s, workers=w)`` returns byte-identical
  results for every ``w >= 1`` — one worker runs inline with no pool.

Task functions and grid points must be picklable (module-level functions
and plain data) when ``workers > 1``; the worker rebuilds each point's
generator from ``(seed, index)``, so nothing random crosses process
boundaries.

Every sweep runs one of two loops: inline (one worker, or at most one
pending point) or over a process pool.  Outside a :func:`sweep_context`
each point gets one attempt and a failed point raises its own
exception.  Inside one (the ``repro sweep`` CLI) the same loops are
crash-safe (see ``docs/robustness.md``): a checkpoint journal records
each completed point so a killed run resumes bit-identically
(:class:`~repro.resilience.journal.SweepJournal`), failed attempts are
retried on their original spawn-key seeds under a
:class:`~repro.resilience.supervisor.RetryPolicy` (bounded retries,
decorrelated-jitter backoff, a progress timeout with pool rebuild on
hangs or ``BrokenProcessPool``), and exhausted budgets raise
:class:`~repro.errors.SweepGapError` carrying a
:class:`~repro.resilience.supervisor.PartialSweepResult` that names the
exact missing points.
"""

from __future__ import annotations

import contextlib
import contextvars
import logging
import time
from collections.abc import Callable, Hashable, Iterable, Iterator
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NamedTuple, TypeVar

import numpy as np

from repro.errors import InvalidParameterError, SweepGapError
from repro.experiments import config
from repro.obs.recorder import OBS
from repro.resilience import faults
from repro.resilience.journal import SweepJournal, sweep_config_hash, task_key
from repro.resilience.supervisor import PartialSweepResult, RetryPolicy, jitter_delays

__all__ = [
    "TASK_DOMAIN",
    "task_seed",
    "run_sweep",
    "sweep_context",
    "SweepContext",
    "memoized",
    "clear_memo",
    "memo_size",
    "memo_stats",
    "MemoStats",
]

_PointT = TypeVar("_PointT")
_ResultT = TypeVar("_ResultT")

_log = logging.getLogger(__name__)

#: Spawn-key namespace for per-grid-point trial streams.
TASK_DOMAIN = 0x7A5C

#: Sentinel distinguishing "no result yet" from a legitimate None result.
_MISSING: Any = object()

#: The policy of a sweep outside any :func:`sweep_context`: one attempt.
_ONE_ATTEMPT = RetryPolicy(retries=0)


def task_seed(seed: int, index: int) -> np.random.SeedSequence:
    """The :class:`~numpy.random.SeedSequence` of sweep point ``index``."""
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    if index < 0:
        raise InvalidParameterError(f"index must be >= 0, got {index}")
    return np.random.SeedSequence(entropy=seed, spawn_key=(TASK_DOMAIN, index))


def _run_point(
    fn: Callable[[_PointT, np.random.Generator], _ResultT],
    point: _PointT,
    seed: int,
    index: int,
) -> _ResultT:
    """Execute one grid point on its spawned stream (runs in-worker)."""
    return fn(point, np.random.default_rng(task_seed(seed, index)))


def _run_point_in_worker(
    fn: Callable[[_PointT, np.random.Generator], _ResultT],
    point: _PointT,
    seed: int,
    index: int,
    attempt: int,
    traced: bool,
) -> tuple[_ResultT, dict[str, Any] | None]:
    """Worker-side task of the pool loop: fault consult, then the point.

    Returns the result and, when ``traced`` (the parent's recorder is
    enabled), the drained telemetry buffer.  The capture is reset first
    — pool workers may be forked with the parent's buffer in memory and
    are re-used across points — so the payload contains exactly this
    point's spans and counters, rooted at its ``sweep.point`` span.

    The fault consult is keyed by ``(index, attempt)``, so an injected
    crash that fired on attempt 0 draws fresh on the retry and a retried
    task can succeed — on exactly the same spawn-key seed, hence with a
    bit-identical result.
    """
    faults.fault_plan().consult("sweep.point", key=index, attempt=attempt)
    if not traced:
        return _run_point(fn, point, seed, index), None
    OBS.begin_capture()
    with OBS.span("sweep.point", index=index):
        result = _run_point(fn, point, seed, index)
    return result, OBS.drain()


# ----------------------------------------------------------------------
# Sweep context: how the CLI supervises the sweeps of exhibit runners
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepContext:
    """Ambient journal/resume/policy settings for nested ``run_sweep`` calls."""

    journal: str | Path | None = None
    resume: bool = False
    policy: RetryPolicy | None = None


_SWEEP_CONTEXT: contextvars.ContextVar[SweepContext | None] = contextvars.ContextVar(
    "repro_sweep_context", default=None
)


@contextlib.contextmanager
def sweep_context(
    journal: str | Path | None = None,
    resume: bool = False,
    policy: RetryPolicy | None = None,
) -> Iterator[SweepContext]:
    """Supervise every ``run_sweep`` inside the block.

    ``journal`` checkpoints each completed point, and ``resume=True``
    skips the points it already holds; ``policy`` bounds retries and
    hangs (default ``RetryPolicy()``).  The ``repro sweep`` command
    wraps :func:`run_experiment` in this, so figure runners journal
    their sweeps without any signature changes.
    """
    context = SweepContext(journal=journal, resume=resume, policy=policy)
    token = _SWEEP_CONTEXT.set(context)
    try:
        yield context
    finally:
        _SWEEP_CONTEXT.reset(token)


def run_sweep(
    fn: Callable[[_PointT, np.random.Generator], _ResultT],
    points: Iterable[_PointT],
    *,
    seed: int,
    workers: int | None = None,
) -> list[_ResultT]:
    """Map ``fn`` over grid points with deterministic spawned seeds.

    ``fn(point, rng)`` is called once per point with a generator seeded
    from ``(seed, point index)``; results come back in point order.  The
    output is byte-identical for every ``workers`` value: parallelism
    changes scheduling, never streams.  ``workers`` defaults to
    ``REPRO_WORKERS``; with one worker (or one pending point) the sweep
    runs inline in this process.

    Outside a :func:`sweep_context` every point runs once, and when any
    fails, the lowest failing index's exception is raised after the
    other points have run.  Inside one, failed points retry under the
    context's policy, completed points are journaled, and points that
    exhaust their budget raise :class:`~repro.errors.SweepGapError`,
    whose ``partial`` names them.
    """
    todo: list[_PointT] = list(points)
    count = workers if workers is not None else config.workers()
    if count < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {count}")
    context = _SWEEP_CONTEXT.get()
    policy = _ONE_ATTEMPT if context is None else context.policy or RetryPolicy()
    journal: SweepJournal | None = None
    completed: dict[int, Any] = {}
    if context is not None and context.journal is not None:
        task = _task_name(fn)
        journal = SweepJournal(context.journal)
        completed = journal.begin(
            sweep_config_hash(task, seed, todo),
            seed=seed,
            points=len(todo),
            task=task,
            resume=context.resume,
        )
        if OBS.enabled:
            OBS.add("resilience.journal_hits", journal.hits)
            OBS.add("resilience.journal_misses", journal.misses)
        if completed:
            _log.info(
                "resuming sweep from %s: %d/%d points already journaled",
                journal.path,
                len(completed),
                len(todo),
            )
    results: list[Any] = [completed.get(i, _MISSING) for i in range(len(todo))]
    pending = [i for i in range(len(todo)) if i not in completed]
    errors: dict[int, Exception] = {}
    inline = count == 1 or len(pending) <= 1
    realized = 1 if inline else min(count, len(pending))
    try:
        with OBS.span(
            "sweep.run",
            points=len(todo),
            workers=realized,
            seed=seed,
            resumed=len(completed),
        ) as sweep_span:
            OBS.gauge("sweep.realized_workers", realized)
            if inline:
                payloads = _run_inline(
                    fn, todo, seed, pending, policy, results, errors, journal
                )
            else:
                payloads = _run_pool(
                    fn, todo, seed, pending, realized, policy, results, errors,
                    journal,
                )
            # Absorb worker buffers in index order once every point is
            # in, so the merged span sequence is deterministic regardless
            # of pool scheduling.  Each payload gets its own track so
            # trace exports keep worker timelines in separate lanes
            # (worker clocks restart at begin_capture).
            for track, index in enumerate(sorted(payloads), start=1):
                OBS.absorb(payloads[index], parent_id=sweep_span.id, track=track)
    finally:
        if journal is not None:
            journal.close()
    missing = [i for i in range(len(todo)) if results[i] is _MISSING]
    if not missing:
        return results
    if context is None:
        raise errors[missing[0]]
    if OBS.enabled:
        OBS.add("resilience.gaps", len(missing))
    partial = PartialSweepResult(
        [None if value is _MISSING else value for value in results],
        missing,
        {index: f"{type(error).__name__}: {error}" for index, error in errors.items()},
    )
    _log.error("sweep incomplete: %s", partial.describe())
    raise SweepGapError(
        f"sweep incomplete after retries — {partial.describe()}", partial
    )


def _task_name(fn: Callable[..., Any]) -> str:
    return f"{getattr(fn, '__module__', '?')}:{getattr(fn, '__qualname__', repr(fn))}"


def _checkpoint(
    journal: SweepJournal | None, seed: int, index: int, value: Any, attempt: int
) -> None:
    if journal is not None:
        journal.record(
            index, value, key=task_key(seed, TASK_DOMAIN, index), attempt=attempt
        )


def _run_inline(
    fn: Callable[[_PointT, np.random.Generator], _ResultT],
    todo: list[_PointT],
    seed: int,
    pending: list[int],
    policy: RetryPolicy,
    results: list[Any],
    errors: dict[int, Exception],
    journal: SweepJournal | None,
) -> dict[int, dict[str, Any]]:
    """Single-process loop (no timeouts: same-process tasks)."""
    plan = faults.fault_plan()
    for index in pending:
        delays = jitter_delays(seed, index, policy)
        for attempt in range(policy.retries + 1):
            try:
                plan.consult("sweep.point", key=index, attempt=attempt)
                with OBS.span("sweep.point", index=index):
                    value = _run_point(fn, todo[index], seed, index)
            except Exception as exc:
                errors[index] = exc
                _log.warning(
                    "sweep point %d attempt %d failed: %s", index, attempt, exc
                )
                if attempt < policy.retries:
                    if OBS.enabled:
                        OBS.add("resilience.retries")
                    delay = next(delays)
                    if delay > 0:
                        time.sleep(delay)
                continue
            results[index] = value
            errors.pop(index, None)
            _checkpoint(journal, seed, index, value, attempt)
            break
    return {}


def _run_pool(
    fn: Callable[[_PointT, np.random.Generator], _ResultT],
    todo: list[_PointT],
    seed: int,
    pending: list[int],
    realized: int,
    policy: RetryPolicy,
    results: list[Any],
    errors: dict[int, Exception],
    journal: SweepJournal | None,
) -> dict[int, dict[str, Any]]:
    """Pooled loop: retries, progress timeout, pool rebuild.

    The timeout is a *progress watchdog*: when no task completes within
    ``policy.timeout`` seconds, futures still running are presumed hung
    and charged a retry, the pool is torn down (hung workers are
    killed), and everything outstanding is resubmitted.  A worker that
    died outright surfaces as ``BrokenProcessPool`` on every in-flight
    future; each is charged one retry (the culprit is indistinguishable
    post-mortem) and the pool is rebuilt if any point is still
    outstanding.
    """
    traced = OBS.enabled
    payloads: dict[int, dict[str, Any]] = {}
    attempts: dict[int, int] = {index: 0 for index in pending}
    outstanding = set(pending)
    delays = {index: jitter_delays(seed, index, policy) for index in pending}
    pool = ProcessPoolExecutor(max_workers=realized)
    active: dict[Future[Any], int] = {}

    def submit(index: int) -> None:
        future = pool.submit(
            _run_point_in_worker, fn, todo[index], seed, index,
            attempts[index], traced,
        )
        active[future] = index

    def charge_retry(index: int, error: Exception) -> bool:
        """Record a failed attempt; True when the point may retry."""
        errors[index] = error
        if attempts[index] < policy.retries:
            attempts[index] += 1
            if OBS.enabled:
                OBS.add("resilience.retries")
            return True
        outstanding.discard(index)
        _log.warning("sweep point %d exhausted its retry budget: %s", index, error)
        return False

    def rebuild_pool() -> None:
        nonlocal pool
        if OBS.enabled:
            OBS.add("resilience.pool_rebuilds")
        _log.warning(
            "rebuilding worker pool (%d point(s) outstanding)", len(outstanding)
        )
        # Hung workers never return; kill them so shutdown cannot block.
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            process.kill()
        pool.shutdown(wait=False, cancel_futures=True)
        pool = ProcessPoolExecutor(max_workers=realized)
        active.clear()
        for index in sorted(outstanding):
            submit(index)

    try:
        for index in pending:
            submit(index)
        while active:
            done, _ = wait(
                set(active), timeout=policy.timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                if OBS.enabled:
                    OBS.add("resilience.timeouts")
                for future, index in list(active.items()):
                    if future.running():
                        charge_retry(
                            index,
                            TimeoutError(
                                f"no progress within {policy.timeout}s "
                                "(presumed hang)"
                            ),
                        )
                rebuild_pool()
                continue
            broken = False
            for future in done:
                index = active.pop(future)
                try:
                    value, payload = future.result()
                except BrokenProcessPool as exc:
                    broken = True
                    charge_retry(index, exc)
                except Exception as exc:
                    _log.warning(
                        "sweep point %d attempt %d failed: %s",
                        index,
                        attempts[index],
                        exc,
                    )
                    if charge_retry(index, exc):
                        delay = next(delays[index])
                        if delay > 0:
                            time.sleep(delay)
                        submit(index)
                else:
                    results[index] = value
                    outstanding.discard(index)
                    errors.pop(index, None)
                    if payload is not None:
                        payloads[index] = payload
                    _checkpoint(journal, seed, index, value, attempts[index])
            if broken and outstanding:
                rebuild_pool()
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return payloads


# ----------------------------------------------------------------------
# Per-process memo for shared sweep inputs
# ----------------------------------------------------------------------
_MEMO: dict[Hashable, Any] = {}
#: The one shared sweep input (a column, a dataset) the memo holds.
_SHARED: dict[Hashable, Any] = {}
_MEMO_HITS = 0
_MEMO_MISSES = 0


class MemoStats(NamedTuple):
    """Hit/miss/size snapshot of the per-process memo."""

    hits: int
    misses: int
    size: int


def memoized(  # reprolint: disable=R1101 - per-process cache by contract: build is deterministic per key, so workers rebuilding independently is correct; hit/miss tallies are documented as per-process
    key: Hashable, build: Callable[[], _ResultT], *, shared_input: bool = False
) -> _ResultT:
    """Build-at-most-once cache, scoped to the current process.

    Sweep tasks use this so a worker that evaluates several grid points
    over the same column (or dataset) builds it once.  Correctness
    never depends on hits: ``build`` must be deterministic for its key,
    as a sweep column built from its specification alone is.  Hits and
    misses are tallied for :func:`memo_stats` and, when telemetry is
    on, the ``executor.memo_hits`` / ``executor.memo_misses`` counters
    — in a parallel sweep those counters are per-process tallies summed
    at merge, so they depend on how the pool scheduled points.

    ``shared_input=True`` marks a sweep input: a size-only column or
    dataset.  The memo holds one of those at a time: building a new one
    first releases the previous one, so a sweep over ten columns peaks
    at one column's memory, not ten.  Grid points are submitted column
    by column, so an inline sweep builds each input once.
    """
    global _MEMO_HITS, _MEMO_MISSES
    store = _SHARED if shared_input else _MEMO
    try:
        value = store[key]
    except KeyError:
        _MEMO_MISSES += 1
        if OBS.enabled:
            OBS.add("executor.memo_misses")
        if shared_input:
            store.clear()
        value = build()
        store[key] = value
        return value
    _MEMO_HITS += 1
    if OBS.enabled:
        OBS.add("executor.memo_hits")
    return value  # type: ignore[no-any-return]


def clear_memo() -> None:
    """Drop every memo entry *and* its hit/miss tallies (tests, servers)."""
    global _MEMO_HITS, _MEMO_MISSES
    _MEMO.clear()
    _SHARED.clear()
    _MEMO_HITS = 0
    _MEMO_MISSES = 0


def memo_size() -> int:
    """Number of live per-process memo entries."""
    return len(_MEMO) + len(_SHARED)


def memo_stats() -> MemoStats:
    """Hits, misses, and live entries of the per-process memo."""
    return MemoStats(hits=_MEMO_HITS, misses=_MEMO_MISSES, size=memo_size())
