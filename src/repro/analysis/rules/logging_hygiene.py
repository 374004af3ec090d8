"""R801 — logging hygiene: library code neither prints nor logs globally.

Library modules (everything under ``repro/`` except the presentation
layer) communicate diagnostics through the package logger so that
applications — the CLI, the test suite, a notebook — decide whether and
where messages appear.  A bare ``print()`` writes to whatever stdout
happens to be, corrupting piped CSV output and CI artifact capture; a
root-logger call (``logging.info(...)``, ``logging.basicConfig(...)``,
argless ``logging.getLogger()``) reaches past the package logger and
mutates or spams process-global logging state that the library does not
own.

The presentation layer is exempt: the CLI (``repro/cli.py``,
``repro/__main__.py``) and the reporters whose *product* is rendered
text (``repro/analysis/reporters.py``, ``repro/experiments/report.py``).
The package logger policy itself lives in ``repro/__init__.py`` (a
``NullHandler``) and ``repro.cli._configure_logging`` (the CLI handler).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.project import ProjectContext
from repro.analysis.rules.base import Rule, register
from repro.analysis.source import SourceModule, qualified_name

__all__ = ["LoggingHygiene"]

#: ``logging.<fn>`` module-level calls that emit through the root logger
#: or mutate global logging configuration.
_ROOT_LOGGER_CALLS = frozenset(
    {
        "debug",
        "info",
        "warning",
        "warn",
        "error",
        "critical",
        "exception",
        "log",
        "basicConfig",
        "disable",
    }
)

#: Presentation-layer modules where stdout *is* the product.
_EXEMPT_SUFFIXES = (
    ("repro", "cli.py"),
    ("repro", "__main__.py"),
    ("repro", "analysis", "reporters.py"),
    ("repro", "experiments", "report.py"),
)


def _is_exempt(module: SourceModule) -> bool:
    pieces = Path(module.path).parts
    return any(
        len(pieces) >= len(suffix) and pieces[-len(suffix) :] == suffix
        for suffix in _EXEMPT_SUFFIXES
    )


@register
class LoggingHygiene(Rule):
    """Flag ``print()`` and root-logger calls in library modules."""

    code = "R801"
    name = "logging-hygiene"
    description = (
        "print() or root-logger call in library code; log through "
        "logging.getLogger(__name__) and let the application attach handlers"
    )

    rationale = (
        'print() writes to stdout unconditionally — it corrupts\n'
        'machine-readable CLI output (JSON reports, SARIF) and cannot be\n'
        'filtered or redirected by the embedding application.  Root-logger\n'
        'calls (logging.info) implicitly configure the root and double-log\n'
        'once the CLI attaches handlers.  Library code logs through its\n'
        'module logger; only the CLI layer owns stdout.'
    )
    example = (
        'print(f"sweep {name} done")             # R801: owns stdout\n'
        '\n'
        '_LOG = logging.getLogger(__name__)\n'
        '_LOG.info("sweep %s done", name)        # app controls routing\n'
    )
    remediation = (
        'Use logging.getLogger(__name__) at module scope.  User-facing\n'
        'CLI output belongs in the cli module, which is exempt.'
    )

    def check(
        self, module: SourceModule, context: ProjectContext
    ) -> Iterator[Finding]:
        if not module.in_package("repro") or _is_exempt(module):
            return
        for node in module.index.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "print":
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    "print() in library code; use the module logger "
                    "(logging.getLogger(__name__)) so callers control output",
                )
                continue
            owner, _, name = (qualified_name(module, func) or "").rpartition(".")
            if owner != "logging":
                continue
            if name in _ROOT_LOGGER_CALLS and isinstance(func, ast.Name):
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"{func.id}() imported from logging emits through the "
                    "root logger; use a module logger instead",
                )
            elif name in _ROOT_LOGGER_CALLS:
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"logging.{name}() emits through the root logger "
                    "or mutates global logging state; use a module logger",
                )
            elif name == "getLogger" and not node.args and not node.keywords:
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    "logging.getLogger() without a name returns the root "
                    "logger; pass __name__",
                )
