"""Per-layer spans for the benchmark's traced pass.

The traced pass wraps each layer's public functions from the outside:
nothing under ``src/`` knows it is being measured.  A wrapper pushes a
frame on one span stack, times the call, and charges the call's *self*
time (its duration minus the wrapped calls under it) to the layer key.

Each name is patched where it is looked up: a module-level function is
rebound in every loaded ``repro`` module that holds it (``figures``
imports ``zipf_column`` by name, ``sampling.base`` imports
``profiles_from_samples``), and a method is replaced on its class.  A
target that no longer exists is skipped with a warning and the metrics
it fed are dropped, so a rename or deletion elsewhere never fails a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any

#: The paper's six estimators; each gets its own inclusive-time metric.
ESTIMATORS = ("GEE", "AE", "HYBGEE", "HYBSKEW", "HYBVAR", "DUJ2A")

#: Every registered exhibit; each gets its own inclusive-time metric.
EXHIBITS = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "table1", "table2",
    "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig15", "fig16", "theorem1", "stability",
)

#: The span key of the exhibit runner.  Its self time is work that no
#: layer below it accounts for, so it counts as unattributed.
RUNNER_KEY = "experiments.exhibit"

After = Callable[["Tracer", tuple, Any, float], None]


class Tracer:
    """One span stack with per-key self time, plus counts and samples."""

    def __init__(self) -> None:
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.values: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[list] = []

    def within(self, prefix: str) -> bool:
        """Whether an enclosing open span's key starts with ``prefix``."""
        return any(frame[0].startswith(prefix) for frame in self._stack)

    def call(
        self, key: str, fn: Callable, args: tuple, kwargs: dict, after: After | None
    ) -> Any:
        frame = [key, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if inspect.isgenerator(result):
                # Analyzer rules yield findings: do their work inside the span.
                result = iter(list(result))
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.self_seconds[key] += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed
        if after is not None:
            after(self, args, result, elapsed)
        return result

    def attributed_seconds(self) -> float:
        """Time covered by a layer span below the exhibit runner."""
        return sum(s for key, s in self.self_seconds.items() if key != RUNNER_KEY)

    def metrics(self, names: Iterable[str]) -> dict[str, float]:
        """Values of ``names``; a metric that nothing recorded reads 0."""
        for key, points in self.samples.items():
            self.values[f"{key}_p50_s"] = statistics.median(points)
            self.values[f"{key}_p90_s"] = (
                statistics.quantiles(points, n=10)[8] if len(points) > 1 else points[0]
            )
        out = {}
        for name in names:
            if name.endswith("_s") and name[:-2] in self.self_seconds:
                out[name] = self.self_seconds[name[:-2]]
            else:
                out[name] = self.values.get(name, 0.0)
        return out


# ----------------------------------------------------------------------
# What each layer records besides its self time
# ----------------------------------------------------------------------
def _rows_built(tracer: Tracer, args: tuple, column: Any, elapsed: float) -> None:
    tracer.values["data.rows_built"] += len(column)


def _pair_rows_built(tracer: Tracer, args: tuple, pair: Any, elapsed: float) -> None:
    tracer.values["data.rows_built"] += len(pair.scenario_a) + len(pair.scenario_b)


def _sampled(tracer: Tracer, args: tuple, profiles: Any, elapsed: float) -> None:
    if not isinstance(profiles, list):  # RowSampler.profile: one trial
        profiles = [profiles]
    tracer.values["sampling.trials"] += len(profiles)
    tracer.values["sampling.rows_sampled"] += sum(p.sample_size for p in profiles)


def _estimated(tracer: Tracer, args: tuple, result: Any, elapsed: float) -> None:
    # Only calls from outside the estimator layer count: a hybrid's branch
    # estimate, or a batch's scalar fallback, is already inside one.
    if tracer.within("core.estimate"):
        return
    tracer.values[f"core.estimator.{args[0].name}_s"] += elapsed
    tracer.values["core.estimates"] += len(result) if isinstance(result, list) else 1


def _grid_point(tracer: Tracer, args: tuple, result: Any, elapsed: float) -> None:
    tracer.values["experiments.points"] += 1
    tracer.samples["experiments.point"].append(elapsed)


def _exhibit(tracer: Tracer, args: tuple, result: Any, elapsed: float) -> None:
    tracer.values[f"exhibit.{args[0]}_s"] += elapsed


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``module:qualname``, its layer key, its extras."""

    path: str
    key: str
    after: After | None = None
    feeds: tuple[str, ...] = ()

    @property
    def metric_names(self) -> tuple[str, ...]:
        return (f"{self.key}_s", *self.feeds)


_ESTIMATE_FEEDS = ("core.estimates", *(f"core.estimator.{e}_s" for e in ESTIMATORS))

TARGETS: tuple[Target, ...] = (
    Target("repro.data.zipf:zipf_column", "data.build", _rows_built, ("data.rows_built",)),
    Target("repro.data.synthetic:column_with_distinct", "data.build", _rows_built, ("data.rows_built",)),
    Target("repro.data.synthetic:bounded_scaleup_column", "data.build", _rows_built, ("data.rows_built",)),
    Target("repro.data.synthetic:unbounded_scaleup_column", "data.build", _rows_built, ("data.rows_built",)),
    Target("repro.core.theory:adversarial_pair", "data.build", _pair_rows_built, ("data.rows_built",)),
    Target("repro.sampling.base:RowSampler.profile_batch", "sampling.draw", _sampled,
           ("sampling.trials", "sampling.rows_sampled")),
    Target("repro.sampling.base:RowSampler.profile", "sampling.draw", _sampled,
           ("sampling.trials", "sampling.rows_sampled")),
    Target("repro.sampling.batch:profiles_from_samples", "sampling.reduce"),
    Target("repro.frequency.batch:FrequencyProfileBatch.from_profiles", "frequency.batch"),
    Target("repro.core.base:DistinctValueEstimator.estimate_batch", "core.estimate_batch",
           _estimated, _ESTIMATE_FEEDS),
    Target("repro.core.base:DistinctValueEstimator.estimate", "core.estimate_scalar",
           _estimated, _ESTIMATE_FEEDS),
    Target("repro.core.uncertainty:bootstrap_estimate", "core.bootstrap"),
    Target("repro.core.uncertainty:bootstrap_profile", "core.bootstrap"),
    Target("repro.experiments.harness:evaluate_column", "experiments.harness", _grid_point,
           ("experiments.points", "experiments.point_p50_s", "experiments.point_p90_s")),
    Target("repro.experiments.figures:run_experiment", RUNNER_KEY, _exhibit,
           tuple(f"exhibit.{e}_s" for e in EXHIBITS)),
    Target("repro.analysis.source:SourceModule.from_file", "analysis.parse"),
    Target("repro.analysis.project:build_context", "analysis.context"),
    Target("repro.analysis.callgraph:build_callgraph", "analysis.callgraph"),
    Target("repro.analysis.callgraph:cached_callgraph", "analysis.callgraph"),
    Target("repro.analysis.dataflow.boundsflow:project_bounds", "analysis.bounds"),
    Target("repro.analysis.dataflow.taintflow:project_taint", "analysis.taint"),
    Target("repro.analysis.dataflow.engine:module_intervals", "analysis.intervals"),
)


def rule_targets() -> list[Target]:
    """One target per registered analyzer rule method (``check``/``check_project``)."""
    try:
        from repro.analysis.rules import all_rules
    except ImportError as exc:
        _warn(f"analyzer rule registry not found ({exc}); per-rule metrics dropped")
        return []
    targets = []
    for code, rule_class in all_rules().items():
        for method in ("check", "check_project"):
            if hasattr(rule_class, method):
                path = f"{rule_class.__module__}:{rule_class.__qualname__}.{method}"
                targets.append(Target(path, f"analysis.rule.{code}"))
    return targets


def _warn(message: str) -> None:
    print(f"bench: warning: {message}", file=sys.stderr)


def _resolve(path: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` for ``module:qualname``."""
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if inspect.isclass(owner):
        return owner, attr, inspect.getattr_static(owner, attr)
    return owner, attr, getattr(owner, attr)


def _wrapper(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(target.key, fn, args, kwargs, target.after)

    return traced


def _rebind_everywhere(original: Any, replacement: Any) -> None:
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name != "repro" and not name.startswith("repro."):
            continue
        namespace = vars(module)
        for attr in [a for a, value in namespace.items() if value is original]:
            setattr(module, attr, replacement)


def install(tracer: Tracer, targets: Iterable[Target]) -> tuple[set[str], set[str]]:
    """Wrap every resolvable target; return ``(fed metric names, missing paths)``.

    All targets are resolved before any is patched, so a method that a
    class inherits from another patched class wraps the original once.
    """
    plan = []
    missing: set[str] = set()
    for target in targets:
        try:
            plan.append((target, *_resolve(target.path)))
        except (ImportError, AttributeError) as exc:
            _warn(f"trace target {target.path} not found ({exc}); its metrics are dropped")
            missing.add(target.path)
    fed: set[str] = set()
    for target, owner, attr, raw in plan:
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(_wrapper(tracer, target, raw.__func__)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(_wrapper(tracer, target, raw.__func__)))
        elif inspect.isclass(owner):
            setattr(owner, attr, _wrapper(tracer, target, raw))
        else:
            _rebind_everywhere(raw, _wrapper(tracer, target, raw))
        fed.update(target.metric_names)
    return fed, missing
