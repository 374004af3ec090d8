"""The shared inputs of every sweep exhibit, found without evaluating a sweep.

Each sweep exhibit hands its grid to ``figures._column_sweep`` (Zipf and
scale-up columns) or ``figures._dataset_sweep`` (surrogate datasets).
:func:`sweep_inputs` replaces both with a recorder that stops the
exhibit there, so collecting the inputs of all 18 sweep exhibits costs
no sampling, even at paper scale.
"""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENTS, figures, run_experiment
from repro.experiments.executor import clear_memo

#: Every exhibit that runs a grid sweep (all but theorem1 and stability).
SWEEP_EXHIBITS = tuple(i for i in EXPERIMENTS if i not in ("theorem1", "stability"))


class _Recorded(Exception):
    """Raised by the recorders once an exhibit has handed over its grid."""


def sweep_inputs(
    monkeypatch: pytest.MonkeyPatch, scale: int
) -> tuple[list[figures._ColumnSpec], list[tuple[str, float]]]:
    """``(column specs, (dataset, scale) pairs)`` of the sweeps at ``REPRO_SCALE``.

    Each list is in first-use order, without repeats.
    """
    specs: list[figures._ColumnSpec] = []
    datasets: list[tuple[str, float]] = []

    def record_columns(grid, *args, **kwargs):
        specs.extend(spec for spec, _ in grid if spec not in specs)
        raise _Recorded

    def record_dataset(name, *args, **kwargs):
        key = (name, figures._scale_ppm() / 1_000_000)
        if key not in datasets:
            datasets.append(key)
        raise _Recorded

    with monkeypatch.context() as patch:
        patch.setenv("REPRO_SCALE", str(scale))
        patch.setattr(figures, "_column_sweep", record_columns)
        patch.setattr(figures, "_dataset_sweep", record_dataset)
        clear_memo()
        for exhibit_id in SWEEP_EXHIBITS:
            with pytest.raises(_Recorded):
                run_experiment(exhibit_id, seed=0)
    return specs, datasets
