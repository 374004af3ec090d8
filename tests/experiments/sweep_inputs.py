"""The shared inputs of every sweep exhibit, found without evaluating a sweep.

Each sweep exhibit hands its grid to ``figures._column_sweep`` (Zipf and
scale-up columns) or ``figures._dataset_sweep`` (surrogate datasets).
:func:`sweep_inputs` replaces both with a recorder that stops the
exhibit there, so collecting the inputs of all 18 sweep exhibits, and
the sample sizes each input is drawn at, costs no sampling, even at
paper scale.
"""

from __future__ import annotations

import pytest

from repro.data import Column, class_size_dataset
from repro.experiments import EXPERIMENTS, figures, run_experiment
from repro.experiments.executor import clear_memo
from repro.sampling.base import resolve_sample_size

#: Every exhibit that runs a grid sweep (all but theorem1 and stability).
SWEEP_EXHIBITS = tuple(i for i in EXPERIMENTS if i not in ("theorem1", "stability"))


class _Recorded(Exception):
    """Raised by the recorders once an exhibit has handed over its grid."""


def _recorded_grids(
    monkeypatch: pytest.MonkeyPatch, scale: int
) -> tuple[
    dict[figures._ColumnSpec, list[figures._Sampling]],
    dict[tuple[str, float], list[float]],
]:
    """Every sweep's samplings, per column spec and per ``(dataset, scale)``.

    Both dicts are in first-use order; each list keeps first-use order
    without repeats.
    """
    columns: dict[figures._ColumnSpec, list[figures._Sampling]] = {}
    datasets: dict[tuple[str, float], list[float]] = {}

    def record_columns(grid, *args, **kwargs):
        for spec, samplings in grid:
            seen = columns.setdefault(spec, [])
            seen.extend(s for s in samplings if s not in seen)
        raise _Recorded

    def record_dataset(name, fractions, *args, **kwargs):
        seen = datasets.setdefault((name, figures._scale_ppm() / 1_000_000), [])
        seen.extend(f for f in fractions if f not in seen)
        raise _Recorded

    with monkeypatch.context() as patch:
        patch.setenv("REPRO_SCALE", str(scale))
        patch.setattr(figures, "_column_sweep", record_columns)
        patch.setattr(figures, "_dataset_sweep", record_dataset)
        clear_memo()
        for exhibit_id in SWEEP_EXHIBITS:
            with pytest.raises(_Recorded):
                run_experiment(exhibit_id, seed=0)
    return columns, datasets


def sweep_inputs(
    monkeypatch: pytest.MonkeyPatch, scale: int
) -> tuple[list[figures._ColumnSpec], list[tuple[str, float]]]:
    """``(column specs, (dataset, scale) pairs)`` of the sweeps at ``REPRO_SCALE``.

    Each list is in first-use order, without repeats.
    """
    columns, datasets = _recorded_grids(monkeypatch, scale)
    return list(columns), list(datasets)


def sweep_sample_sizes(
    monkeypatch: pytest.MonkeyPatch, scale: int
) -> list[tuple[Column, list[int]]]:
    """Every sweep column at ``REPRO_SCALE`` with the sample sizes drawn from it."""
    columns, datasets = _recorded_grids(monkeypatch, scale)
    drawn = []
    for spec, samplings in columns.items():
        column = spec.build()
        sizes = [resolve_sample_size(column.n_rows, s, f) for f, s in samplings]
        drawn.append((column, sizes))
    for (name, dataset_scale), fractions in datasets.items():
        for column in class_size_dataset(name, scale=dataset_scale):
            sizes = [resolve_sample_size(column.n_rows, fraction=f) for f in fractions]
            drawn.append((column, sizes))
    return drawn
