"""File collection and the lint driver.

:func:`lint_paths` is the one entry point everything else (CLI, tests,
``make check``) goes through: collect ``.py`` files, parse each once into
a :class:`~repro.analysis.source.SourceModule`, build the shared
:class:`~repro.analysis.project.ProjectContext`, run every requested rule,
then apply suppression pragmas and the optional baseline.  Files that do
not parse become ``P001`` findings instead of crashing the run — a lint
tool that dies on the file it should be reporting is useless in CI.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analysis.dataflow.contract_lookup import contract_lookup
from repro.analysis.findings import PARSE_ERROR_CODE, Finding
from repro.analysis.project import ProjectContext, build_context
from repro.analysis.rules import ProjectRule, Rule, all_rules, resolve_rules
from repro.analysis.rules.contracts import module_has_contracts
from repro.analysis.rules.suppressions import (
    STALE_SUPPRESSION_CODE,
    StaleSuppression,
)
from repro.analysis.source import SUPPRESS_ALL, SourceModule
from repro.errors import InvalidParameterError

__all__ = ["LintReport", "collect_files", "lint_paths"]

#: Rules whose findings depend on the interval engine; a run selecting
#: any of them builds every module's analysis with the contract lookup
#: first.
_INTERVAL_RULES = frozenset(
    {"R101", "R102", "R702", "R1301", "R1302", "R1303", "R1304"}
)

#: Directory names never descended into.
_SKIP_DIRS = frozenset(
    {
        "__pycache__",
        ".git",
        ".hypothesis",
        ".mypy_cache",
        ".pytest_cache",
        ".ruff_cache",
        ".venv",
        "venv",
        "build",
        "dist",
    }
)


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0
    baselined: int = 0
    parse_errors: int = 0
    #: ``(path, ClauseVerdict)`` pairs, populated when ``prove=True``.
    contract_verdicts: list = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """0 when clean, 1 when any finding survives suppression/baseline."""
        return 1 if self.findings else 0

    def counts_by_code(self) -> dict[str, int]:
        """Surviving findings per rule code, in code order."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return dict(sorted(counts.items()))


def collect_files(paths: Sequence[str]) -> list[str]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    collected: list[str] = []
    seen: set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py") and path not in seen:
                seen.add(path)
                collected.append(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    name
                    for name in dirnames
                    if name not in _SKIP_DIRS and not name.endswith(".egg-info")
                )
                for filename in sorted(filenames):
                    if not filename.endswith(".py"):
                        continue
                    full = os.path.join(dirpath, filename)
                    if full not in seen:
                        seen.add(full)
                        collected.append(full)
        else:
            raise InvalidParameterError(f"lint path does not exist: {path!r}")
    return sorted(collected)


def _parse_modules(
    files: Iterable[str],
) -> tuple[list[SourceModule], list[Finding]]:
    modules: list[SourceModule] = []
    errors: list[Finding] = []
    for path in files:
        try:
            modules.append(SourceModule.from_file(path))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            line = getattr(exc, "lineno", None) or 1
            col = getattr(exc, "offset", None) or 1
            errors.append(
                Finding(
                    path=path,
                    line=int(line),
                    col=max(int(col) - 1, 0),
                    code=PARSE_ERROR_CODE,
                    message=f"could not parse file: {exc}",
                    rule="parse-error",
                )
            )
    return modules, errors


def lint_paths(
    paths: Sequence[str],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    baseline: dict[str, int] | None = None,
    prove: bool = False,
) -> LintReport:
    """Lint the given files/directories and return a :class:`LintReport`.

    ``baseline`` maps ``"path::code"`` keys to allowed counts (see
    :mod:`repro.analysis.baseline`); up to that many matching findings
    are absorbed per key, so pre-existing debt does not fail the run but
    *new* findings of the same kind still do.

    ``prove=True`` additionally collects the static verdict of every
    contract clause (:meth:`ModuleIntervals.contract_verdicts`) into
    ``report.contract_verdicts`` — the table ``repro lint --prove``
    prints.  The interval analyses are cached per module, so this reuses
    the work R101/R102/R702 already did.

    Suppression pragmas that silence nothing are themselves findings
    (R701) when that rule is active: the runner records which pragma
    entries absorbed a finding and reports the leftovers, scoped to the
    codes of rules that actually ran (``disable=all`` entries are judged
    only on a full-rule run).
    """
    files = collect_files(paths)
    modules, parse_findings = _parse_modules(files)
    context: ProjectContext = build_context(modules)
    rules: list[Rule] = resolve_rules(select, ignore)

    if modules and (
        prove or any(rule.code in _INTERVAL_RULES for rule in rules)
    ):
        # Build every interval analysis with the cross-module contract
        # lookup *before* any rule queries intervals, so R101/R102/R13xx
        # and --prove all resolve calls into other modules.
        contract_lookup(modules, context)

    raw: list[Finding] = list(parse_findings)
    for module in modules:
        for rule in rules:
            raw.extend(rule.check(module, context))
    for rule in rules:
        if isinstance(rule, ProjectRule):
            raw.extend(rule.check_project(modules, context))

    report = LintReport(files_scanned=len(files))
    by_path = {module.path: module for module in modules}
    remaining_baseline = dict(baseline or {})
    used_entries: dict[str, set[tuple[int, str, bool]]] = {}

    def admit(
        finding: Finding,
        judged_entry: tuple[int, str, bool] | None = None,
    ) -> None:
        module = by_path.get(finding.path)
        if module is not None:
            matches = module.suppressions.matching_entries(
                finding.line, finding.code
            )
            if judged_entry is not None:
                # A stale report must not be silenced by the very entry
                # it reports — otherwise a stale ``disable=all`` hides
                # itself forever.  A *different* entry (an explicit
                # ``disable=R701``) still counts.
                matches = [entry for entry in matches if entry != judged_entry]
            if matches:
                used_entries.setdefault(finding.path, set()).update(matches)
                report.suppressed += 1
                return
        key = finding.baseline_key
        if remaining_baseline.get(key, 0) > 0:
            remaining_baseline[key] -= 1
            report.baselined += 1
            return
        if finding.code == PARSE_ERROR_CODE:
            report.parse_errors += 1
        report.findings.append(finding)

    for finding in sorted(raw):
        admit(finding)

    stale_rule = next(
        (rule for rule in rules if rule.code == STALE_SUPPRESSION_CODE), None
    )
    if isinstance(stale_rule, StaleSuppression):
        for entry, finding in sorted(
            _stale_findings(modules, rules, stale_rule, used_entries),
            key=lambda pair: pair[1],
        ):
            # An entry that just absorbed an earlier stale report (e.g.
            # ``disable=R701``) did real work after all — recheck.
            if entry in used_entries.get(finding.path, set()):
                continue
            admit(finding, judged_entry=entry)
        report.findings.sort()

    if prove:
        from repro.analysis.dataflow import module_intervals

        for module in modules:
            if not module_has_contracts(module):
                continue
            for verdict in module_intervals(module).contract_verdicts():
                report.contract_verdicts.append((module.path, verdict))
    return report


def _stale_findings(
    modules: list[SourceModule],
    rules: list[Rule],
    stale_rule: StaleSuppression,
    used_entries: dict[str, set[tuple[int, str, bool]]],
) -> list[tuple[tuple[int, str, bool], Finding]]:
    """``(entry, finding)`` pairs for pragma entries that suppressed nothing.

    An entry for code ``C`` is only judged when the rule for ``C`` ran;
    ``disable=all`` entries only when every registered rule ran — a
    partial ``--select`` run must not declare other rules' pragmas stale.
    The judged entry rides along so the admitter can refuse to let it
    suppress its own stale report.
    """
    active = {rule.code for rule in rules}
    covers_all = set(all_rules()) <= active
    findings: list[tuple[tuple[int, str, bool], Finding]] = []
    for module in modules:
        used = used_entries.get(module.path, set())
        for entry in module.suppressions.pragma_entries():
            line, code, file_wide = entry
            if entry in used:
                continue
            if code == SUPPRESS_ALL:
                if not covers_all:
                    continue
            elif code not in active:
                continue
            findings.append(
                (entry, stale_rule.stale_finding(module, line, code, file_wide))
            )
    return findings
