"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py setup
    python3 bench/worker.py imports
    python3 bench/worker.py pass <workload> <seed> <traced: 0|1>

``bench/run.py`` launches this from the repository root with ``src`` as
the only ``PYTHONPATH`` entry and every ``REPRO_*`` variable cleared, so
a pass measures what a user gets by default: paper scale, 10 trials,
one worker, telemetry and contracts off.  The last stdout line is one
JSON record.  A pass calls only public entry points:
``repro.experiments.run_experiment`` and ``repro.cli.main``.
"""

import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path


def _timed_import(module: str) -> float:
    start = time.perf_counter()
    __import__(module)
    return time.perf_counter() - start


if __name__ == "__main__":
    if sys.argv[1:2] == ["imports"]:
        # Incremental import cost: each number is what that import adds
        # on top of the ones before it.  scipy.stats imports
        # scipy.optimize, so optimize goes first to be counted on its own.
        IMPORT_SECONDS = {
            "import.numpy_s": _timed_import("numpy"),
            "import.scipy.optimize_s": _timed_import("scipy.optimize"),
            "import.scipy.stats_s": _timed_import("scipy.stats"),
            "import.repro_s": _timed_import("repro.cli"),
        }
    else:
        # Set-up time runs from interpreter launch until this import
        # returns; the parent stamps the launch on the same monotonic clock.
        import repro.cli  # noqa: F401
    READY = time.monotonic()

ROOT = Path(__file__).resolve().parent.parent

LINT = "lint"

#: The operations one pass of each workload runs, in order.
WORKLOADS: dict[str, tuple[str, ...]] = {
    "synthetic": (
        "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
        "table1", "table2", "fig7", "fig8", "fig9", "fig10",
    ),
    "surrogates": ("fig11", "fig12", "fig13", "fig14", "fig15", "fig16"),
    "bootstrap": ("theorem1", "stability"),
    "lint": (LINT,),
}

#: Exhibits whose every value is a mean ratio error of one paper estimator.
ERROR_EXHIBITS = frozenset(
    {"fig1", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
     "fig11", "fig13", "fig15"}
)

#: Highest mean ratio error a correct build may report, per workload.
#: Each is the largest value measured over seeds 0-19 plus 3% (seeds
#: 0-19 span 1.988-2.041 for GEE on synthetic, 2.137-2.190 on
#: surrogates), so a change that alters the random stream but stays
#: correct passes on any seed, while a real accuracy loss fails the pass.
ACCURACY_CEILING: dict[str, dict[str, float]] = {
    "synthetic": {"ratio_err_gee": 2.103, "ratio_err_all": 2.127},
    "surrogates": {"ratio_err_gee": 2.256, "ratio_err_all": 2.150},
}


def check_table(exhibit: str, table) -> list[str]:
    """Invariants every exhibit must satisfy, whatever the random stream."""
    series = table.series
    values = [v for column in series.values() for v in column]
    problems = []
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite value")
    if exhibit in ERROR_EXHIBITS and any(v < 1.0 for v in values):
        problems.append("ratio error below 1")
    if exhibit in ("table1", "table2"):
        for x, actual, lower, upper in zip(
            table.x_values, series["ACTUAL"], series["LOWER"], series["UPPER"]
        ):
            if not lower <= actual <= upper:
                problems.append(f"ACTUAL {actual} outside [{lower}, {upper}] at {x}")
    if exhibit == "theorem1":
        for name, worst, floor in zip(
            table.x_values, series["worst"], series["theorem1_floor"]
        ):
            if worst < 0.8 * floor:
                problems.append(f"{name} worst {worst} below 0.8 x floor {floor}")
    if exhibit == "stability" and table.value("branch_flip_rate", "DUJ2A") != 0:
        problems.append("DUJ2A branch flip rate is not 0")
    return problems


def check_lint(code: int, report: dict) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"lint exited {code}")
    if report["findings"]:
        problems.append(f"{len(report['findings'])} lint findings")
    return problems


def accuracy(tables: dict) -> dict[str, float] | None:
    """Mean ratio error over all grid points of the error exhibits run."""
    gee: list[float] = []
    every: list[float] = []
    for exhibit, table in tables.items():
        if exhibit in ERROR_EXHIBITS:
            gee += table.series["GEE"]
            every += [v for column in table.series.values() for v in column]
    if not gee:
        return None
    return {
        "ratio_err_gee": math.fsum(gee) / len(gee),
        "ratio_err_all": math.fsum(every) / len(every),
    }


def run_op(name: str, seed: int):
    if name == LINT:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sys.modules["repro.cli"].main(["lint", "src", "--format", "json"])
        return code, out.getvalue()
    # Looked up on every call, so a traced pass reaches the wrapper.
    return sys.modules["repro.experiments"].run_experiment(name, seed=seed)


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    import repro.experiments  # noqa: F401  (imported before the clock starts)

    tracer, fed, missing = None, set(), set()
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        fed, missing = tracing.install(
            tracer, [*tracing.TARGETS, *tracing.rule_targets()]
        )

    ops, outputs = [], {}
    started = time.perf_counter()
    for name in WORKLOADS[workload]:
        op_started = time.perf_counter()
        error = None
        try:
            outputs[name] = run_op(name, seed)
        except Exception as exc:  # a failed op is counted; the pass goes on
            error = f"{type(exc).__name__}: {exc}"
        ops.append(
            {"name": name, "seconds": time.perf_counter() - op_started, "error": error}
        )
    wall = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Rendering and checking happen after the clock stops.
    tables, lint_report = {}, {"files_scanned": 0, "findings": []}
    for op in ops:
        if op["error"] is not None:
            continue
        name = op["name"]
        try:
            if name == LINT:
                code, text = outputs[name]
                lint_report = json.loads(text)
                op["problems"] = check_lint(code, lint_report)
            else:
                text = outputs[name].to_csv()
                op["problems"] = check_table(name, outputs[name])
                tables[name] = outputs[name]
        except Exception as exc:  # a check that cannot run is a failed check
            op["problems"] = [f"check failed: {type(exc).__name__}: {exc}"]
            continue
        op["digest"] = hashlib.sha256(text.encode()).hexdigest()

    measured = accuracy(tables)
    if workload in ACCURACY_CEILING and measured is not None:
        ceiling = ACCURACY_CEILING[workload]
        ops.append({
            "name": "accuracy",
            "seconds": 0.0,
            "error": None,
            "problems": [
                f"{key} {value:.4f} above ceiling {ceiling[key]}"
                for key, value in measured.items()
                if value > ceiling[key]
            ],
        })

    record = {
        "ready": READY,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "accuracy": measured,
    }
    if tracer is not None:
        attributed = tracer.attributed_seconds()
        layers = tracer.metrics(sorted(fed))
        layers.update({
            "analysis.files": lint_report["files_scanned"],
            "analysis.findings": len(lint_report["findings"]),
            "accuracy.ratio_err_gee": (measured or {}).get("ratio_err_gee", 0.0),
            "accuracy.ratio_err_all": (measured or {}).get("ratio_err_all", 0.0),
            "trace.unattributed_frac": max(0.0, wall - attributed) / wall,
        })
        record["layers"] = layers
        record["missing_targets"] = sorted(missing)
    return record


def main(argv: list[str]) -> int:
    source = ROOT / "src"
    imported = sys.modules["repro.cli"].__file__
    if not Path(imported).resolve().is_relative_to(source):
        print(f"bench: repro imported from {imported}, not {source}", file=sys.stderr)
        return 2
    mode = argv[0]
    if mode == "setup":
        record = {"ready": READY}
    elif mode == "imports":
        record = {"imports": IMPORT_SECONDS}
    elif mode == "pass":
        workload, seed, traced = argv[1], int(argv[2]), argv[3] == "1"
        record = run_pass(workload, seed, traced)
    else:
        print(f"bench: unknown worker mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
