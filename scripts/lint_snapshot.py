#!/usr/bin/env python
"""Print every reprolint finding and ``--prove`` verdict of a checkout.

Run with this checkout's analyzer over any checkout ``ROOT`` (this one,
or a parent commit's, e.g. from ``git archive``)::

    python scripts/lint_snapshot.py ROOT > snapshot.txt

It lints three trees, as ``repro lint`` would from ``ROOT``:

* ``src`` -- ``ROOT/src``;
* ``fixtures`` -- ``ROOT/tests/analysis/fixtures/*.py``, copied under a
  temporary ``repro/estimators/`` so the estimator-stack rules apply;
* ``all`` -- ``ROOT``'s ``src tests benchmarks scripts bench``.

It prints one sorted ``tree path:line:col:code`` line per finding, paths
relative to ``ROOT`` (or to the temporary directory), then the
``repro lint src --prove --stale-pragmas`` verdict lines of ``ROOT/src``.
Diffing two snapshots shows whether an analyzer change moved a finding
or a proof.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))

from repro.analysis import LintReport, lint_paths, render_prove  # noqa: E402

__all__ = ["main", "snapshot"]

_ALL_TREES = ("src", "tests", "benchmarks", "scripts", "bench")


@contextmanager
def _inside(directory: Path) -> Iterator[None]:
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def _finding_lines(tree: str, report: LintReport) -> list[str]:
    return sorted(
        f"{tree} {Path(finding.path).as_posix()}:{finding.line}:{finding.col}:{finding.code}"
        for finding in report.findings
    )


def snapshot(root: Path) -> list[str]:
    """The finding lines of the three trees, then the verdict lines."""
    root = root.resolve()
    with _inside(root):
        src_report = lint_paths(["src"], prove=True)
        all_report = lint_paths(list(_ALL_TREES))
    with tempfile.TemporaryDirectory() as scratch:
        package = Path(scratch) / "repro" / "estimators"
        package.mkdir(parents=True)
        for fixture in sorted((root / "tests" / "analysis" / "fixtures").glob("*.py")):
            shutil.copy(fixture, package / fixture.name)
        with _inside(Path(scratch)):
            fixture_report = lint_paths(["repro"])
    return [
        *_finding_lines("src", src_report),
        *_finding_lines("fixtures", fixture_report),
        *_finding_lines("all", all_report),
        "",
        *render_prove(src_report).splitlines(),
    ]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("root", metavar="ROOT", type=Path, help="checkout to lint")
    args = parser.parse_args(argv)
    print("\n".join(snapshot(args.root)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
