"""Paper-scale end-to-end benchmark of the repro package.

Run from the repository root:

    python3 bench/run.py --seed 0 --out results.json
    python3 bench/run.py --workload surrogates --seed 3 --seconds 25 --trace 0
    python3 bench/run.py compare A.json ... -- B.json ...

Each pass of a workload runs in a fresh interpreter (``bench/worker.py``),
one process at a time: a closed loop with one client.  Passes repeat
until ``--seconds`` is used up; the end-to-end metrics are medians over
them.  With ``--trace 1`` one extra pass runs with every layer wrapped
(``bench/tracer.py``) and gives the per-layer metrics instead.  Without
``--workload`` every workload runs, reporting both kinds.

Every output is checked (``worker.check_table``/``check_lint``, the
accuracy ceilings, identical CSVs across passes); the last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}`` and
the exit status is 1 when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import verdicts
import worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Set-up samples per run; runs with fewer passes add import-only launches.
MIN_SETUPS = 5

#: A pass that takes longer than this is killed and counted as failed.
PASS_TIMEOUT_S = 150


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict[str, str]:
    """The user's default configuration: no ``REPRO_*`` knob, one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def launch(*args: str) -> dict:
    """Run ``worker.py`` with ``args``; its record, or ``{"error": why}``."""
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {PASS_TIMEOUT_S} s"}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"exit {proc.returncode}: {' | '.join(tail)}"}
    record = json.loads(lines[-1])
    if "ready" in record:
        record["setup_s"] = record.pop("ready") - launched
    return record


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    record = launch("pass", workload, str(seed), "1" if traced else "0")
    if "error" in record:  # the process died: every op of the pass failed
        record["ops"] = [
            {"name": op, "error": record["error"]} for op in worker.WORKLOADS[workload]
        ]
    record["traced"] = traced
    return record


def tally(passes: list[dict]) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)``; every pass must match the first's outputs."""
    first_digest: dict[str, str] = {}
    attempted, problems = 0, []
    for number, record in enumerate(passes, 1):
        for op in record["ops"]:
            attempted += 1
            why = [op["error"]] if op["error"] else list(op.get("problems", []))
            digest = op.get("digest")
            if digest is not None and first_digest.setdefault(op["name"], digest) != digest:
                why.append("output differs from the first pass")
            if why:
                problems.append(f"pass {number} {op['name']}: {'; '.join(why)}")
    return attempted, len(problems), problems


def run_workload(
    workload: str, seed: int, seconds: float, end_to_end: bool, per_layer: bool
) -> dict:
    """Untraced passes for the time budget, then the traced pass if asked."""
    warm = launch("setup")  # byte-compiles and pages in numpy/scipy; not measured
    if "error" in warm:
        raise SystemExit(f"bench: cannot import repro from {ROOT / 'src'}: {warm['error']}")
    budget = seconds if end_to_end else seconds / 2
    passes: list[dict] = []
    started = time.monotonic()
    while True:
        passes.append(run_pass(workload, seed, traced=False))
        elapsed = time.monotonic() - started
        # Stop unless half an average pass still fits: runs overshoot
        # the budget by at most half a pass, and undershoot by as much.
        if elapsed + elapsed / len(passes) / 2 > budget:
            break
    setups = [p["setup_s"] for p in passes if "setup_s" in p]
    probes = []
    while end_to_end and len(setups) < MIN_SETUPS:
        probe = launch("setup")
        probes.append(probe)
        if "error" in probe:
            break
        setups.append(probe["setup_s"])

    finished = [p for p in passes if "wall_s" in p]
    walls = [p["wall_s"] for p in finished]
    samples = {
        "setup_s": setups,
        "wall_s": walls,
        "peak_rss_mb": [p["peak_rss_mb"] for p in finished],
    }
    result: dict = {
        "seed": seed, "seconds": seconds, "passes": passes, "setup_probes": probes,
        "samples": samples,
    }
    metrics: dict[str, float] = {}
    if end_to_end and walls:
        metrics.update({name: statistics.median(values) for name, values in samples.items()})
    if per_layer:
        traced = run_pass(workload, seed, traced=True)
        passes.append(traced)
        imports = launch("imports")
        result["imports"] = imports
        if "layers" in traced:
            metrics.update(traced["layers"])
            metrics.update(imports.get("imports", {}))
            if walls:
                metrics["trace.overhead_frac"] = traced["wall_s"] / statistics.median(walls) - 1
    result["attempted"], result["failed"], result["problems"] = tally(passes)
    result["raw_metrics"] = metrics
    return result


def select_metrics(raw: dict[str, float], declared: list[dict]) -> dict[str, dict]:
    """The declared metrics with their units; a declared one not measured is dropped."""
    out = {}
    for metric in declared:
        if metric["name"] in raw:
            out[metric["name"]] = {"value": raw[metric["name"]], "unit": metric["unit"]}
        else:
            print(f"bench: warning: metric {metric['name']} not measured; dropped",
                  file=sys.stderr)
    return out


def environment(seed: int) -> dict:
    def version(package: str) -> str | None:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no history to name
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": commit,
    }


def report(workload: str, result: dict) -> list[str]:
    untraced = sum(not p["traced"] for p in result["passes"])
    lines = [
        f"{workload}: seed {result['seed']}, {untraced} passes"
        f"{' + 1 traced' if untraced < len(result['passes']) else ''}, "
        f"{result['attempted'] - result['failed']}/{result['attempted']} ops correct"
    ]
    lines += [f"  FAILED {problem}" for problem in result["problems"]]
    samples = result["samples"]
    idle = 0
    for name, entry in result["metrics"].items():
        value, unit = entry["value"], entry["unit"]
        if value == 0 and name not in samples:
            idle += 1
            continue
        text = f"{value:,.0f}" if unit == "count" else f"{value:.6g}"
        spread = ""
        if name in samples:
            q1, _, q3 = verdicts.quartiles(samples[name])
            spread = f"  [q1 {q1:.4g}, q3 {q3:.4g}, n={len(samples[name])}]"
        lines.append(f"  {name:<34} {text:>14} {unit}{spread}")
    if idle:
        lines.append(f"  ({idle} per-layer metrics read 0: layers this workload does not run)")
    return lines


def main(argv: list[str]) -> int:
    spec = load_spec()
    if argv[:1] == ["compare"]:
        return verdicts.main(argv[1:], spec)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(worker.WORKLOADS),
                        help="one workload (default: all, with the traced pass)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="time budget of the untraced passes per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer metrics only")
    parser.add_argument("--out", type=Path, help="write the full results JSON here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_to_end = args.trace != 1
    per_layer = args.trace != 0
    workloads = [args.workload] if args.workload else list(worker.WORKLOADS)
    declared = (spec["end_to_end"] if end_to_end else []) + (
        spec["per_layer"] if per_layer else []
    )

    results = {}
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, end_to_end, per_layer)
        result["metrics"] = select_metrics(result.pop("raw_metrics"), declared)
        results[workload] = result
        print("\n".join(report(workload, result)), flush=True)

    if args.out:
        document = {"environment": environment(args.seed), "workloads": results}
        args.out.write_text(json.dumps(document, separators=(",", ":")) + "\n")

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {
            f"{workload}.{name}": entry
            for workload, result in results.items()
            for name, entry in result["metrics"].items()
        }
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
