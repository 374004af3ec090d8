"""Memory-peak gate: sweep inputs and draws stay within fixed tracemalloc peaks.

tracemalloc counts the bytes Python and numpy allocate, whatever the
machine, so these bounds hold on any runner where wall time or RSS
would not.  A size-only surrogate grows with its distinct class sizes,
not its classes: building all of MSSales at paper scale once peaked at
70.3 MiB and kept 29.3 MiB of per-class sizes alive, then 15.6 MiB
while it still summed and sized every rank in one array.  The n = 1M,
Z = 1 Zipf scale solve peaked at 31.5 MiB, then at 15.3 MiB while it
held the powers of all 1M ranks and a scratch buffer as long, and its
memo kept 1.2 MiB of per-class sizes where the column needs 558 runs.
An index-path trial draws no ``n``-entry permutation: one on MSSales
``invoice`` at r = 127,763 peaked at 16.2 MiB while it did.
"""

from __future__ import annotations

import gc
import tracemalloc
from collections.abc import Callable, Iterator
from contextlib import contextmanager

import numpy as np

from repro.data import class_size_dataset, zipf
from repro.data.surrogates import MSSALES_ROWS
from repro.experiments import figures
from repro.sampling import UniformWithoutReplacement

MIB = 1 << 20


@contextmanager
def _traced() -> Iterator[Callable[[], tuple[int, int]]]:
    """Trace allocations; yields a reader of ``(held, peak)`` bytes since entry.

    A tracemalloc already running (``REPRO_TELEMETRY_MEM``) is left
    running; one started here is stopped on exit, since a trace left on
    slows every later test.
    """
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()

        def read() -> tuple[int, int]:
            held, peak = tracemalloc.get_traced_memory()
            return held - base, peak - base

        yield read
    finally:
        if started:
            tracemalloc.stop()


def test_the_paper_scale_mssales_build_peaks_below_4_mib():
    with _traced() as read:
        dataset = class_size_dataset("MSSales")
        held, peak = read()
    assert dataset.n_rows == MSSALES_ROWS and len(dataset) == 20
    assert peak <= 4 * MIB, f"peak {peak / MIB:.1f} MiB"
    assert held <= 1 * MIB, f"held {held / MIB:.2f} MiB"


def test_an_invoice_index_path_trial_peaks_below_8_mib():
    column = class_size_dataset("MSSales").column("invoice")
    r = 127_763
    assert 2 * column.distinct_count > r, "must take the index path"
    with _traced() as read:
        (profile,) = UniformWithoutReplacement().profile_batch(
            column, np.random.default_rng(0), 1, size=r
        )
        _, peak = read()
    assert profile.sample_size == r
    assert peak <= 8 * MIB, f"peak {peak / MIB:.1f} MiB"


def test_the_1m_row_zipf_solve_peaks_below_4_mib():
    zipf._solved_size_runs.cache_clear()
    with _traced() as read:
        runs = zipf.zipf_size_runs(1_000_000, 1.0)
        _, peak = read()
    assert runs.n_rows == 1_000_000
    assert peak <= 4 * MIB, f"peak {peak / MIB:.1f} MiB"


def test_a_1m_row_zipf_sweep_column_keeps_below_a_quarter_mib():
    zipf._solved_size_runs.cache_clear()
    spec = figures._ColumnSpec(figures._KIND_ZIPF, 1_000_000, 1.0, 1)
    with _traced() as read:
        column = spec.build()
        held, _ = read()
    assert column.n_rows == 1_000_000
    assert held <= MIB // 4, f"held {held / MIB:.2f} MiB"
