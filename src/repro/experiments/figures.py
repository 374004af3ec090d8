"""Runners that regenerate every table and figure of the paper's §6.

Each ``fig*``/``table*`` function reproduces one exhibit and returns a
:class:`~repro.experiments.report.SeriesTable` holding the same series
the paper plots.  The registry :data:`EXPERIMENTS` maps exhibit ids
(``"fig1"`` ... ``"fig16"``, ``"table1"``, ``"table2"``, ``"theorem1"``)
to zero-argument callables with the paper's parameters baked in; the
benchmark suite executes the registry one exhibit per file.

All runners honour ``REPRO_SCALE`` / ``REPRO_TRIALS`` (see
:mod:`repro.experiments.config`) and take a ``seed`` so runs are
reproducible.

Several exhibits are views of one experiment.  Figure 1, Figure 3 and
Table 1 read the same Z=0 sampling-rate sweep (mean ratio error,
stddev / D and GEE's interval), Figures 2 and 4 and Table 2 the Z=2
sweep, and each real-dataset pair (11/12, 13/14, 15/16) one sweep over
the dataset's columns.  A sweep is evaluated once per process and kept
in the executor memo (:func:`~repro.experiments.executor.clear_memo`
drops it), so the second exhibit of a group costs no sampling or
estimation and prints the bytes a run of its own would.

Every grid sweep is a :func:`~repro.experiments.executor.run_sweep`
(see ``docs/performance.md``): each grid point draws from an independent
child stream derived from the root seed and its grid index.  The shared
inputs (columns, datasets) have no stream at all: a sweep column holds
only its class sizes, and uniform sampling without replacement draws
each trial's profile from those sizes (count-domain sampling), so no
sweep builds or shuffles a column's rows.  A point's samples therefore
depend on nothing but the seed and the point, and results are
byte-identical for any ``REPRO_WORKERS`` value and for ``repro
exhibit`` and ``repro sweep`` alike.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.core.base import ratio_error
from repro.core.registry import PAPER_ESTIMATORS, make_estimators
from repro.core.theory import adversarial_pair, lower_bound_error
from repro.data.column import Column, SizeRuns
from repro.data.surrogates import DATASETS, Dataset, class_size_dataset
from repro.data.zipf import zipf_size_runs
from repro.errors import InvalidParameterError
from repro.experiments import config, executor
from repro.experiments.harness import (
    EstimatorSummary,
    EvaluationResult,
    evaluate_column,
)
from repro.experiments.report import SeriesTable
from repro.obs.recorder import OBS
from repro.sampling.schemes import UniformWithoutReplacement

__all__ = [
    "error_vs_sampling_rate",
    "variance_vs_sampling_rate",
    "error_vs_skew",
    "error_vs_duplication",
    "gee_interval_table",
    "scaleup_bounded",
    "scaleup_unbounded",
    "real_dataset_metric",
    "theorem1_comparison",
    "stability_comparison",
    "EXPERIMENTS",
    "run_experiment",
]

_METRICS = ("error", "stddev")


def _metric_value(summary: EstimatorSummary, metric: str) -> float:
    if metric == "error":
        return summary.mean_ratio_error
    if metric == "stddev":
        return summary.std_fraction
    raise InvalidParameterError(f"metric must be one of {_METRICS}, got {metric!r}")


def _trials(trials: int | None) -> int:
    return trials if trials is not None else config.trials()


def _series_names(
    results: Sequence[EvaluationResult], estimators: Sequence[str]
) -> list[str]:
    """Canonical estimator series names for a sweep's result list."""
    if results:
        return list(results[0].summaries)
    return [e.name for e in make_estimators(estimators)]


# ----------------------------------------------------------------------
# Sweep task machinery (spawn-seeded, process-parallel)
# ----------------------------------------------------------------------
_KIND_ZIPF, _KIND_BOUNDED, _KIND_UNBOUNDED = 1, 2, 3


@dataclass(frozen=True)
class _ColumnSpec:
    """Deterministic description of a synthetic column.

    ``factor`` is the duplication factor for zipf/unbounded columns and
    ``base_rows`` for the bounded-scaleup workload.  The column it
    builds holds only the size runs of ``zipf_column``,
    ``bounded_scaleup_column`` or ``unbounded_scaleup_column`` with the
    same arguments: the Zipf solve's runs, each size times the number
    of copies.  Every worker that needs it builds the same one.
    """

    kind: int
    n_rows: int
    z: float
    factor: int

    def build(self) -> Column:
        if self.kind == _KIND_BOUNDED:
            runs = zipf_size_runs(self.factor, self.z)
            copies = self.n_rows // self.factor
            label = f"bounded-scaleup(n={self.n_rows},z={self.z:g},base={self.factor})"
        else:
            runs = zipf_size_runs(self.n_rows // self.factor, self.z)
            copies = self.factor
            family = "zipf" if self.kind == _KIND_ZIPF else "unbounded-scaleup"
            label = f"{family}(n={self.n_rows},z={self.z:g},dup={self.factor})"
        copied = SizeRuns.from_spectrum(runs.sizes * copies, runs.counts)
        return Column.from_size_runs(copied, name=label)


def _build_column_traced(spec: _ColumnSpec) -> Column:
    with OBS.span("data.build_column", n_rows=spec.n_rows, z=spec.z):
        return spec.build()


def _shared_column(spec: _ColumnSpec) -> Column:
    """Build ``spec``'s size-only column once per process."""
    return executor.memoized(
        ("column", spec), lambda: _build_column_traced(spec), shared_input=True
    )


@dataclass(frozen=True)
class _EvalTask:
    """One grid point: evaluate a column at one sampling configuration."""

    spec: _ColumnSpec
    estimators: tuple[str, ...]
    trials: int
    fraction: float | None = None
    size: int | None = None


def _evaluate_point(task: _EvalTask, rng: np.random.Generator) -> EvaluationResult:
    """Sweep task function (module-level so worker processes can load it)."""
    column = _shared_column(task.spec)
    suite = make_estimators(task.estimators)
    return evaluate_column(
        column, suite, rng,
        fraction=task.fraction, size=task.size, trials=task.trials,
    )


#: How one grid point samples its column: ``(fraction, size)``, one of them set.
_Sampling = tuple[float | None, int | None]


def _column_sweep(
    grid: Sequence[tuple[_ColumnSpec, Sequence[_Sampling]]],
    estimators: Sequence[str],
    runs: int,
    seed: int,
) -> Sequence[EvaluationResult]:
    """Evaluate each column of ``grid`` at each of its samplings, in order.

    Every point is a sweep task on its own stream.  The results are
    memoized per process under everything that determines them: the
    grid, the trial count and the seed.  A sweep already evaluated for
    a superset of ``estimators`` answers the request without sampling
    again: estimators are pure functions of the shared trial profiles,
    so leaving some out changes no byte of the others' summaries.
    """
    with OBS.span("sweep.grid"):
        frozen = tuple((spec, tuple(samplings)) for spec, samplings in grid)
        evaluated: dict[tuple[str, ...], Sequence[EvaluationResult]] = (
            executor.memoized(("column sweep", frozen, runs, seed), dict)
        )
        names = [e.name for e in make_estimators(estimators)]
        for cached in evaluated.values():
            if cached and set(names) <= set(cached[0].summaries):
                return [
                    replace(result, summaries={name: result[name] for name in names})
                    for result in cached
                ]
        results = executor.run_sweep(
            _evaluate_point,
            [
                _EvalTask(spec, tuple(estimators), runs, fraction=fraction, size=size)
                for spec, samplings in frozen
                for fraction, size in samplings
            ],
            seed=seed,
        )
        evaluated[tuple(estimators)] = results
        return results


@dataclass(frozen=True)
class _DatasetTask:
    """One grid point of a real-dataset exhibit: one sampling fraction."""

    dataset_name: str
    scale_ppm: int  # dataset scale in parts-per-million (picklable int key)
    estimators: tuple[str, ...]
    trials: int
    fraction: float


def _build_dataset_traced(name: str, scale_ppm: int) -> Dataset:
    with OBS.span("data.build_dataset", dataset=name):
        return class_size_dataset(name, scale=scale_ppm / 1_000_000)


def _shared_dataset(name: str, scale_ppm: int) -> Dataset:
    """Build the size-only surrogate ``name`` once per process."""
    return executor.memoized(
        ("dataset", name, scale_ppm),
        lambda: _build_dataset_traced(name, scale_ppm),
        shared_input=True,
    )


@dataclass(frozen=True)
class _DatasetOutcome:
    """Per-fraction result of a dataset sweep, plus title metadata.

    ``means[metric][estimator]`` is the metric averaged over all columns,
    for both metrics, so a dataset's error and stddev exhibits read one
    evaluation.
    """

    means: dict[str, dict[str, float]]
    n_columns: int
    n_rows: int
    dataset_label: str


def _evaluate_dataset_point(
    task: _DatasetTask, rng: np.random.Generator
) -> _DatasetOutcome:
    """Sweep task: both metrics, averaged over every dataset column, at one fraction."""
    dataset = _shared_dataset(task.dataset_name, task.scale_ppm)
    suite = make_estimators(task.estimators)
    totals = {metric: {e.name: 0.0 for e in suite} for metric in _METRICS}
    for column in dataset:
        result = evaluate_column(
            column, suite, rng, fraction=task.fraction, trials=task.trials
        )
        for metric, sums in totals.items():
            for name in sums:
                sums[name] += _metric_value(result[name], metric)
    return _DatasetOutcome(
        means={
            metric: {name: total / len(dataset) for name, total in sums.items()}
            for metric, sums in totals.items()
        },
        n_columns=len(dataset),
        n_rows=dataset.n_rows,
        dataset_label=dataset.name,
    )


def _scale_ppm() -> int:
    return round(1_000_000 / config.scale_divisor())


def _dataset_sweep(
    dataset_name: str,
    fractions: tuple[float, ...],
    estimators: tuple[str, ...],
    runs: int,
    seed: int,
) -> Sequence[_DatasetOutcome]:
    """One surrogate dataset evaluated at every fraction, memoized per process."""
    scale_ppm = _scale_ppm()
    with OBS.span("sweep.grid"):
        return executor.memoized(
            ("dataset sweep", dataset_name, scale_ppm, fractions, estimators, runs, seed),
            lambda: executor.run_sweep(
                _evaluate_dataset_point,
                [
                    _DatasetTask(dataset_name, scale_ppm, estimators, runs, f)
                    for f in fractions
                ],
                seed=seed,
            ),
        )


# ----------------------------------------------------------------------
# Synthetic sweeps (Figures 1-8, Tables 1-2)
# ----------------------------------------------------------------------
def error_vs_sampling_rate(
    z: float,
    duplication: int,
    n_rows: int | None = None,
    fractions: Sequence[float] = config.SAMPLING_FRACTIONS,
    estimators: Sequence[str] = PAPER_ESTIMATORS,
    trials: int | None = None,
    seed: int = 0,
    metric: str = "error",
) -> SeriesTable:
    """Figures 1/2 (metric='error') and 3/4 (metric='stddev')."""
    if metric not in _METRICS:
        raise InvalidParameterError(f"metric must be one of {_METRICS}, got {metric!r}")
    n = n_rows if n_rows is not None else config.scaled_rows(
        config.PAPER_ROWS, keep_divisible_by=duplication
    )
    results = _column_sweep(
        [(_ColumnSpec(_KIND_ZIPF, n, z, duplication), [(f, None) for f in fractions])],
        estimators, _trials(trials), seed,
    )
    with OBS.span("report.table"):
        distinct = results[0].true_distinct if results else 0
        label = "mean ratio error" if metric == "error" else "stddev / D"
        table = SeriesTable(
            title=(
                f"{label} vs sampling rate "
                f"(Z={z:g}, dup={duplication}, n={n:,}, D={distinct:,})"
            ),
            x_name="rate",
            x_values=[f"{f:.1%}" for f in fractions],
        )
        for name in _series_names(results, estimators):
            table.add_series(
                name, [_metric_value(result[name], metric) for result in results]
            )
    return table


def variance_vs_sampling_rate(
    z: float, duplication: int, **kwargs: Any
) -> SeriesTable:
    """Figures 3/4: estimator stddev (as a fraction of D) vs sampling rate."""
    return error_vs_sampling_rate(z, duplication, metric="stddev", **kwargs)


def error_vs_skew(
    fraction: float,
    duplication: int = 100,
    n_rows: int | None = None,
    skews: Sequence[float] = config.SKEW_VALUES,
    estimators: Sequence[str] = PAPER_ESTIMATORS,
    trials: int | None = None,
    seed: int = 0,
) -> SeriesTable:
    """Figures 5 (0.8% rate) and 6 (6.4% rate): error vs Zipf skew."""
    n = n_rows if n_rows is not None else config.scaled_rows(
        config.PAPER_ROWS, keep_divisible_by=duplication
    )
    results = _column_sweep(
        [(_ColumnSpec(_KIND_ZIPF, n, z, duplication), [(fraction, None)]) for z in skews],
        estimators, _trials(trials), seed,
    )
    with OBS.span("report.table"):
        table = SeriesTable(
            title=(
                f"mean ratio error vs skew "
                f"(rate={fraction:.1%}, dup={duplication}, n={n:,})"
            ),
            x_name="Z",
            x_values=[f"{z:g}" for z in skews],
        )
        for name in _series_names(results, estimators):
            table.add_series(name, [result[name].mean_ratio_error for result in results])
    return table


def error_vs_duplication(
    fraction: float,
    z: float = 1.0,
    n_rows: int | None = None,
    duplications: Sequence[int] = config.DUPLICATION_FACTORS,
    estimators: Sequence[str] = PAPER_ESTIMATORS,
    trials: int | None = None,
    seed: int = 0,
) -> SeriesTable:
    """Figures 7 (0.8% rate) and 8 (6.4% rate): error vs duplication factor."""
    base_n = n_rows if n_rows is not None else config.PAPER_ROWS
    results = _column_sweep(
        [
            (
                _ColumnSpec(
                    _KIND_ZIPF, config.scaled_rows(base_n, keep_divisible_by=dup), z, dup
                ),
                [(fraction, None)],
            )
            for dup in duplications
        ],
        estimators, _trials(trials), seed,
    )
    with OBS.span("report.table"):
        table = SeriesTable(
            title=f"mean ratio error vs duplication (rate={fraction:.1%}, Z={z:g})",
            x_name="dup",
            x_values=[str(dup) for dup in duplications],
        )
        for name in _series_names(results, estimators):
            table.add_series(name, [result[name].mean_ratio_error for result in results])
    return table


def gee_interval_table(
    z: float,
    duplication: int = 100,
    n_rows: int | None = None,
    fractions: Sequence[float] = config.SAMPLING_FRACTIONS,
    trials: int | None = None,
    seed: int = 0,
) -> SeriesTable:
    """Tables 1 (Z=0) and 2 (Z=2): GEE's [LOWER, UPPER] interval vs rate.

    Same sweep as Figures 1 and 3 (Z=0) or 2 and 4 (Z=2): after either
    of those ran, the table is read from its GEE summaries.
    """
    n = n_rows if n_rows is not None else config.scaled_rows(
        config.PAPER_ROWS, keep_divisible_by=duplication
    )
    results = _column_sweep(
        [(_ColumnSpec(_KIND_ZIPF, n, z, duplication), [(f, None) for f in fractions])],
        ("GEE",), _trials(trials), seed,
    )
    with OBS.span("report.table"):
        table = SeriesTable(
            title=(
                f"GEE error guarantee (Z={z:g}, dup={duplication}, n={n:,})"
            ),
            x_name="rate",
            x_values=[f"{f:.1%}" for f in fractions],
            notes="ACTUAL must always lie within [LOWER, UPPER]",
        )
        summaries = [result["GEE"] for result in results]
        table.add_series("ACTUAL", [float(result.true_distinct) for result in results])
        table.add_series("LOWER", [summary.mean_lower for summary in summaries])
        table.add_series("UPPER", [summary.mean_upper for summary in summaries])
        table.add_series("GEE", [summary.mean_estimate for summary in summaries])
    return table


# ----------------------------------------------------------------------
# Scale-up (Figures 9-10)
# ----------------------------------------------------------------------
def scaleup_bounded(
    row_counts: Sequence[int] | None = None,
    base_rows: int = 1000,
    z: float = 2.0,
    sample_size: int = 10_000,
    estimators: Sequence[str] = PAPER_ESTIMATORS,
    trials: int | None = None,
    seed: int = 0,
) -> SeriesTable:
    """Figure 9: fixed D and fixed 10K-row sample while n grows."""
    divisor = config.scale_divisor()
    if row_counts is None:
        row_counts = [k * 100_000 for k in range(1, 11)]
    row_counts = [max(base_rows, n // divisor - (n // divisor) % base_rows)
                  for n in row_counts]
    sample_size = max(100, sample_size // divisor)
    results = _column_sweep(
        [
            (_ColumnSpec(_KIND_BOUNDED, n, z, base_rows), [(None, min(sample_size, n))])
            for n in row_counts
        ],
        estimators, _trials(trials), seed,
    )
    with OBS.span("report.table"):
        table = SeriesTable(
            title=(
                f"bounded-domain scaleup (Z={z:g}, base={base_rows}, "
                f"sample={sample_size:,} rows fixed)"
            ),
            x_name="n",
            x_values=[f"{n:,}" for n in row_counts],
        )
        for name in _series_names(results, estimators):
            table.add_series(name, [result[name].mean_ratio_error for result in results])
    return table


def scaleup_unbounded(
    row_counts: Sequence[int] | None = None,
    duplication: int = 100,
    z: float = 2.0,
    fraction: float = 0.016,
    estimators: Sequence[str] = PAPER_ESTIMATORS,
    trials: int | None = None,
    seed: int = 0,
) -> SeriesTable:
    """Figure 10: fixed sampling fraction while n (and D) grow."""
    divisor = config.scale_divisor()
    if row_counts is None:
        row_counts = [k * 100_000 for k in range(1, 11)]
    row_counts = [
        max(duplication, n // divisor - (n // divisor) % duplication)
        for n in row_counts
    ]
    results = _column_sweep(
        [
            (_ColumnSpec(_KIND_UNBOUNDED, n, z, duplication), [(fraction, None)])
            for n in row_counts
        ],
        estimators, _trials(trials), seed,
    )
    with OBS.span("report.table"):
        table = SeriesTable(
            title=(
                f"unbounded-domain scaleup (Z={z:g}, dup={duplication}, "
                f"rate={fraction:.1%})"
            ),
            x_name="n",
            x_values=[f"{n:,}" for n in row_counts],
        )
        for name in _series_names(results, estimators):
            table.add_series(name, [result[name].mean_ratio_error for result in results])
    return table


# ----------------------------------------------------------------------
# Real-world surrogates (Figures 11-16)
# ----------------------------------------------------------------------
def real_dataset_metric(
    dataset_name: str,
    metric: str = "error",
    fractions: Sequence[float] = config.SAMPLING_FRACTIONS,
    estimators: Sequence[str] = PAPER_ESTIMATORS,
    trials: int | None = None,
    seed: int = 0,
) -> SeriesTable:
    """Figures 11-16: per-estimator mean error / stddev over all columns.

    Both metrics come from one sweep, memoized per process, so the error
    and stddev exhibits of a dataset evaluate it once.
    """
    if metric not in _METRICS:
        raise InvalidParameterError(f"metric must be one of {_METRICS}, got {metric!r}")
    if dataset_name not in DATASETS:
        known = ", ".join(sorted(DATASETS))
        raise InvalidParameterError(
            f"unknown dataset {dataset_name!r}; known: {known}"
        )
    outcomes = _dataset_sweep(
        dataset_name, tuple(fractions), tuple(estimators), _trials(trials), seed
    )
    if outcomes:
        first = outcomes[0]
        names = list(first.means[metric])
        n_columns, n_rows_label = first.n_columns, first.n_rows
        dataset_label = first.dataset_label
    else:  # metadata only: no grid points to borrow it from
        shared = _shared_dataset(dataset_name, _scale_ppm())
        names = [e.name for e in make_estimators(estimators)]
        n_columns, n_rows_label = len(shared), shared.n_rows
        dataset_label = shared.name
    with OBS.span("report.table"):
        label = "mean ratio error" if metric == "error" else "stddev / D"
        table = SeriesTable(
            title=(
                f"{label} over all {n_columns} columns of {dataset_label} "
                f"(n={n_rows_label:,})"
            ),
            x_name="rate",
            x_values=[f"{f:.1%}" for f in fractions],
        )
        for name in names:
            table.add_series(name, [outcome.means[metric][name] for outcome in outcomes])
    return table


# ----------------------------------------------------------------------
# Theorem 1 (Section 3's numeric comparison)
# ----------------------------------------------------------------------
def theorem1_comparison(
    n_rows: int | None = None,
    fraction: float = 0.2,
    gamma: float = 0.5,
    estimators: Sequence[str] = PAPER_ESTIMATORS,
    trials: int | None = None,
    seed: int = 0,
) -> SeriesTable:
    """Section 3's check: observed errors on the adversarial pair vs the bound.

    For each estimator, samples both Theorem-1 scenarios and reports the
    larger of the two mean ratio errors; no estimator can beat the
    ``sqrt((n-r)/(2r) ln(1/gamma))`` floor on both scenarios at once.
    """
    rng = np.random.default_rng(seed)
    n = n_rows if n_rows is not None else config.scaled_rows(100_000)
    r = max(1, int(round(fraction * n)))
    with OBS.span("data.adversarial_pair", n_rows=n, sample_size=r):
        pair = adversarial_pair(n, r, gamma=gamma, rng=rng)
    runs = _trials(trials)
    with OBS.span("theorem1.scenarios", trials=runs):
        suite = make_estimators(estimators)
        sampler = UniformWithoutReplacement()
        errors_a, errors_b, worst = [], [], []
        for estimator in suite:
            per_scenario = []
            for data, truth in (
                (pair.scenario_a, pair.distinct_a),
                (pair.scenario_b, pair.distinct_b),
            ):
                profiles = sampler.profile_batch(data, rng, runs, size=r)
                with OBS.span("theorem1.estimate", estimator=estimator.name):
                    total = 0.0
                    for profile in profiles:
                        value = estimator.estimate(profile, n).value
                        total += ratio_error(value, truth)
                per_scenario.append(total / runs)
            errors_a.append(per_scenario[0])
            errors_b.append(per_scenario[1])
            worst.append(max(per_scenario))
    with OBS.span("report.table"):
        table = SeriesTable(
            title=(
                f"Theorem 1 adversarial pair (n={n:,}, r={r:,}, gamma={gamma}, "
                f"k={pair.k})"
            ),
            x_name="estimator",
            x_values=[e.name for e in suite],
            notes=(
                "worst = max(mean error on Scenario A, mean error on Scenario B); "
                "Theorem 1 floor applies to worst"
            ),
        )
        table.add_series("scenario_A", errors_a)
        table.add_series("scenario_B", errors_b)
        table.add_series("worst", worst)
        table.add_series(
            "theorem1_floor", [lower_bound_error(n, r, gamma=gamma)] * len(suite)
        )
    return table


# ----------------------------------------------------------------------
# Extension exhibit: hybrid instability (the §5.2 argument, quantified)
# ----------------------------------------------------------------------
def stability_comparison(
    n_rows: int | None = None,
    fraction: float = 0.005,
    estimators: Sequence[str] = ("AE", "GEE", "HYBGEE", "HYBSKEW", "HYBVAR", "DUJ2A"),
    replicates: int = 120,
    trials: int | None = None,
    seed: int = 0,
) -> SeriesTable:
    """Bootstrap instability of each estimator on boundary-skew data.

    Section 5.2's critique of hybrids: near the skew-test decision
    boundary "some random samples result in the choice of one estimator
    while others cause the other to be chosen ... resulting in high
    variance".  This exhibit measures it directly: for each estimator,
    the bootstrap coefficient of variation (replicate std / estimate)
    averaged over several samples of a column whose estimated CV^2 sits
    astride HYBVAR's branch threshold (the Figure 9 workload, ~13.4 vs
    the 12.5 cut at every scale), so replicates genuinely flip branches.
    The hybrids score markedly worse than the smooth estimators.
    """
    from repro.core.uncertainty import bootstrap_estimate, bootstrap_profile
    from repro.data.synthetic import bounded_scaleup_column

    rng = np.random.default_rng(seed)
    n = n_rows if n_rows is not None else config.scaled_rows(
        config.PAPER_ROWS, keep_divisible_by=1000
    )
    with OBS.span("data.build_column", n_rows=n, z=2.0):
        column = bounded_scaleup_column(n, base_rows=1000, z=2.0, rng=rng)
    suite = make_estimators(estimators)
    sampler = UniformWithoutReplacement()
    runs = _trials(trials)
    cvs, errors, flip_rates = [], [], []
    for estimator in suite:
        cv_total, err_total = 0.0, 0.0
        flips, branch_observations = 0, 0
        for _ in range(runs):
            profile = sampler.profile(column.values, rng, fraction=fraction)
            with OBS.span("bootstrap.estimate", estimator=estimator.name):
                summary = bootstrap_estimate(
                    estimator, profile, n, rng, replicates=replicates
                )
            cv_total += summary.std / max(summary.estimate, 1.0)
            err_total += ratio_error(summary.estimate, column.distinct_count)
            # Branch-flip rate: how often a resampled profile routes a
            # hybrid to a different branch than the original sample did.
            with OBS.span("bootstrap.branch_flips", estimator=estimator.name):
                original = estimator.estimate(profile, n).details.get("branch")
                if original is not None:
                    for _ in range(20):
                        replicate = bootstrap_profile(profile, rng)
                        branch = estimator.estimate(replicate, n).details.get("branch")
                        branch_observations += 1
                        flips += branch != original
        cvs.append(cv_total / runs)
        errors.append(err_total / runs)
        flip_rates.append(
            flips / branch_observations if branch_observations else 0.0
        )
    with OBS.span("report.table"):
        table = SeriesTable(
            title=(
                f"bootstrap instability on branch-boundary data "
                f"(bounded-scaleup Z=2, n={n:,}, rate={fraction:.1%})"
            ),
            x_name="estimator",
            x_values=[e.name for e in suite],
            notes="cv = bootstrap replicate std / estimate, averaged over samples",
        )
        table.add_series("bootstrap_cv", cvs)
        table.add_series("branch_flip_rate", flip_rates)
        table.add_series("mean_ratio_error", errors)
    return table


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
EXPERIMENTS: dict[str, Callable[..., SeriesTable]] = {
    "fig1": lambda **kw: error_vs_sampling_rate(z=0.0, duplication=100, **kw),
    "fig2": lambda **kw: error_vs_sampling_rate(z=2.0, duplication=100, **kw),
    "fig3": lambda **kw: variance_vs_sampling_rate(z=0.0, duplication=100, **kw),
    "fig4": lambda **kw: variance_vs_sampling_rate(z=2.0, duplication=100, **kw),
    "fig5": lambda **kw: error_vs_skew(fraction=0.008, **kw),
    "fig6": lambda **kw: error_vs_skew(fraction=0.064, **kw),
    "table1": lambda **kw: gee_interval_table(z=0.0, **kw),
    "table2": lambda **kw: gee_interval_table(z=2.0, **kw),
    "fig7": lambda **kw: error_vs_duplication(fraction=0.008, **kw),
    "fig8": lambda **kw: error_vs_duplication(fraction=0.064, **kw),
    "fig9": lambda **kw: scaleup_bounded(**kw),
    "fig10": lambda **kw: scaleup_unbounded(**kw),
    "fig11": lambda **kw: real_dataset_metric("Census", metric="error", **kw),
    "fig12": lambda **kw: real_dataset_metric("Census", metric="stddev", **kw),
    "fig13": lambda **kw: real_dataset_metric("CoverType", metric="error", **kw),
    "fig14": lambda **kw: real_dataset_metric("CoverType", metric="stddev", **kw),
    "fig15": lambda **kw: real_dataset_metric("MSSales", metric="error", **kw),
    "fig16": lambda **kw: real_dataset_metric("MSSales", metric="stddev", **kw),
    "theorem1": lambda **kw: theorem1_comparison(**kw),
    "stability": lambda **kw: stability_comparison(**kw),
}


def run_experiment(exhibit_id: str, **kwargs: Any) -> SeriesTable:
    """Run one registered exhibit by id (``"fig1"`` ... ``"theorem1"``)."""
    try:
        runner = EXPERIMENTS[exhibit_id]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise InvalidParameterError(
            f"unknown exhibit {exhibit_id!r}; known: {known}"
        ) from None
    with OBS.span(f"exhibit.{exhibit_id}"):
        if OBS.enabled:
            OBS.add("experiments.exhibits_run")
        return runner(**kwargs)
