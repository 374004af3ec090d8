"""Chaos tests: killed, crashed, and hung sweeps recover bit-identically.

Every test compares a sweep supervised by ``sweep_context`` and run
under injected faults against the faultless baseline — equality must be
exact (``==`` on the result lists), because retried and resumed points
rerun on their original spawn-key seeds.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
import repro.resilience.faults as faults
from repro.errors import SweepGapError
from repro.experiments.executor import run_sweep, sweep_context
from repro.obs import OBS
from repro.resilience import PartialSweepResult, RetryPolicy

POINTS = list(range(10))
SEED = 11

#: Zero-backoff policy so chaos tests spend no wall time sleeping.
FAST = {"base_delay": 0.0, "max_delay": 0.0}


#: When True, ``_task`` refuses to run — used to prove a fully-journaled
#: resume recomputes nothing (single-worker tests only; not forked).
_EXPLODE = False


def _task(point, rng):
    """Picklable sweep task whose result depends on the per-point stream."""
    if _EXPLODE:
        raise AssertionError("resume recomputed a journaled point")
    return point * 1000 + int(rng.integers(0, 1000))


@pytest.fixture(scope="module")
def baseline():
    return run_sweep(_task, POINTS, seed=SEED, workers=1)


def _supervised(workers, policy, journal=None, resume=False):
    """``run_sweep`` of the chaos grid under a ``sweep_context``."""
    with sweep_context(journal=journal, resume=resume, policy=policy):
        return run_sweep(_task, POINTS, seed=SEED, workers=workers)


def _gaps(workers, policy, journal=None):
    """The ``PartialSweepResult`` of a supervised sweep that must fall short."""
    with pytest.raises(SweepGapError) as excinfo:
        _supervised(workers, policy, journal)
    partial = excinfo.value.partial
    assert isinstance(partial, PartialSweepResult)
    return partial


class TestCrashRecovery:
    def test_inline_crashes_retry_to_bit_identity(self, baseline, set_faults):
        set_faults("sweep.point:crash@0.4", seed=1)
        result = _supervised(1, RetryPolicy(retries=6, **FAST))
        assert result == baseline

    def test_pooled_crashes_retry_to_bit_identity(self, baseline, set_faults):
        set_faults("sweep.point:crash@0.4", seed=1)
        result = _supervised(2, RetryPolicy(retries=6, **FAST))
        assert result == baseline

    def test_exhausted_retries_name_the_exact_gaps(self, baseline, set_faults):
        set_faults("sweep.point:crash@1.0", seed=1)
        partial = _gaps(2, RetryPolicy(retries=1, **FAST))
        assert partial.missing == tuple(POINTS)
        assert all("InjectedFaultError" in msg for msg in partial.errors.values())

    def test_exhausted_budget_raises_with_partial_attached(self, set_faults):
        set_faults("sweep.point:crash@1.0", seed=1)
        partial = _gaps(1, RetryPolicy(retries=0, **FAST))
        assert partial.missing == tuple(POINTS)

    def test_mixed_survival_keeps_completed_points(self, baseline, set_faults):
        set_faults("sweep.point:crash@0.4", seed=1)
        partial = _gaps(1, RetryPolicy(retries=0, **FAST))
        assert 0 < len(partial.missing) < len(POINTS)
        for index in range(len(POINTS)):
            if index not in partial.missing:
                assert partial[index] == baseline[index]


class TestWorkerDeath:
    def test_killed_workers_rebuild_pool_and_recover(self, baseline, set_faults):
        set_faults("sweep.point:kill@0.25", seed=2)
        result = _supervised(2, RetryPolicy(retries=10, **FAST))
        assert result == baseline

    def test_a_break_that_leaves_nothing_outstanding_builds_no_pool(
        self, set_faults
    ):
        # Every attempt kills its worker and no point may retry, so the
        # break exhausts every point: no pool is rebuilt for nothing.
        set_faults("sweep.point:kill@1.0", seed=2)
        OBS.begin_capture()
        try:
            partial = _gaps(2, RetryPolicy(retries=0, **FAST))
            counters = OBS.counters()
        finally:
            OBS.drain()
            OBS.disable()
        assert partial.missing == tuple(POINTS)
        assert all("BrokenProcessPool" in msg for msg in partial.errors.values())
        assert counters.get("resilience.pool_rebuilds", 0) == 0


class TestHangs:
    def test_hung_workers_time_out_and_recover(self, baseline, set_faults):
        set_faults("sweep.point:hang@0.3:30", seed=3)
        result = _supervised(2, RetryPolicy(retries=8, timeout=0.5, **FAST))
        assert result == baseline


class TestResume:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_resume_is_bit_identical_for_any_worker_count(
        self, baseline, set_faults, tmp_path, workers
    ):
        journal = tmp_path / "sweep.journal.jsonl"
        set_faults("sweep.point:crash@0.4", seed=1)
        partial = _gaps(workers, RetryPolicy(retries=0, **FAST), journal)
        assert not partial.complete
        # The faults vanish (the "crash" is over); resume fills the gaps.
        faults._PLAN = faults.parse_faults("")
        resumed = _supervised(workers, RetryPolicy(), journal, resume=True)
        assert resumed == baseline

    def test_resume_after_full_completion_recomputes_nothing(
        self, baseline, tmp_path, monkeypatch
    ):
        journal = tmp_path / "sweep.journal.jsonl"
        first = _supervised(1, RetryPolicy(), journal)
        assert first == baseline
        monkeypatch.setattr("tests.resilience.test_recovery._EXPLODE", True)
        resumed = _supervised(1, RetryPolicy(), journal, resume=True)
        assert resumed == baseline

    def test_sweep_context_threads_journal_into_nested_sweeps(
        self, baseline, tmp_path
    ):
        journal = tmp_path / "ctx.journal.jsonl"
        with sweep_context(journal=journal, resume=True):
            first = run_sweep(_task, POINTS, seed=SEED, workers=1)
        assert journal.exists()
        with sweep_context(journal=journal, resume=True):
            again = run_sweep(_task, POINTS, seed=SEED, workers=1)
        assert list(first) == list(again) == baseline


class TestTelemetryIndependence:
    def test_supervised_results_identical_with_telemetry_on(
        self, baseline, set_faults, tmp_path
    ):
        set_faults("sweep.point:crash@0.4", seed=1)
        OBS.begin_capture()
        try:
            result = _supervised(
                2, RetryPolicy(retries=6, **FAST), tmp_path / "obs.journal.jsonl"
            )
            counters = OBS.counters()
        finally:
            OBS.drain()
            OBS.disable()
        assert result == baseline
        assert counters.get("resilience.retries", 0) > 0
        assert counters.get("resilience.journal_misses") == len(POINTS)


class TestFastPathUnchanged:
    def test_unsupervised_sweep_returns_a_plain_list(self, baseline):
        result = run_sweep(_task, POINTS, seed=SEED, workers=1)
        assert type(result) is list
        assert result == baseline


class TestCliKillResume:
    """End-to-end: SIGKILL a ``repro sweep`` mid-run, resume, compare CSV."""

    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {
            **os.environ,
            "PYTHONPATH": src,
            "REPRO_SCALE": "100000",
            "REPRO_TRIALS": "2",
        }
        reference = tmp_path / "reference.csv"
        subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "fig2", "--csv", str(reference)],
            cwd=tmp_path, env=env, check=True, capture_output=True, timeout=120,
        )
        # Stretch every grid point so the kill lands mid-sweep.
        killed = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "sweep", "fig2",
                "--csv", str(tmp_path / "resumed.csv"),
            ],
            cwd=tmp_path,
            env={**env, "REPRO_FAULTS": "sweep.point:delay@1.0:0.5"},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        journal = tmp_path / "sweeps" / "fig2.journal.jsonl"
        deadline = time.time() + 60
        while time.time() < deadline:
            if journal.exists() and len(journal.read_bytes().splitlines()) >= 2:
                break
            time.sleep(0.05)
        killed.send_signal(signal.SIGKILL)
        killed.wait(timeout=30)
        assert journal.exists(), "journal never appeared before the kill"
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro", "sweep", "fig2", "--resume",
                "--csv", str(tmp_path / "resumed.csv"),
            ],
            cwd=tmp_path, env=env, check=True, capture_output=True, timeout=120,
        )
        assert completed.returncode == 0
        assert (tmp_path / "resumed.csv").read_bytes() == reference.read_bytes()
