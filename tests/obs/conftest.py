"""Shared fixtures for the telemetry tests.

The recorder is a process-wide singleton, so every test that turns it
on must leave it off and empty for the rest of the suite (the suite
runs with ``REPRO_TELEMETRY`` unset, i.e. recording disabled).  The
same holds for tracemalloc, which memory tracking starts and the
recorder never stops: left running, it traces every allocation of
every later test.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.obs import OBS


@pytest.fixture
def obs():
    """The singleton recorder, enabled and empty; restored afterwards."""
    OBS.reset()
    OBS.enable()
    yield OBS
    OBS.disable()
    OBS.reset()


@pytest.fixture(autouse=True)
def _stop_tracemalloc_it_started():
    """Stop tracemalloc after a test that started it."""
    tracing = tracemalloc.is_tracing()
    yield
    if not tracing:
        tracemalloc.stop()
