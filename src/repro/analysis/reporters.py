"""Text and JSON renderings of a :class:`~repro.analysis.runner.LintReport`.

The text form mirrors the ``path:line:col: CODE message`` convention of
every compiler-adjacent tool so editors can jump to findings.  The JSON
form is a stable, versioned schema for CI tooling::

    {
      "version": 1,
      "files_scanned": 42,
      "suppressed": 3,
      "baselined": 0,
      "counts": {"R101": 2},
      "findings": [
        {"path": "...", "line": 10, "col": 4,
         "code": "R101", "rule": "unguarded-division", "message": "..."}
      ]
    }
"""

from __future__ import annotations

import json

from repro.analysis.rules import all_rules
from repro.analysis.runner import LintReport

__all__ = [
    "render_text",
    "render_json",
    "render_sarif",
    "render_prove",
    "JSON_SCHEMA_VERSION",
    "SARIF_VERSION",
]

JSON_SCHEMA_VERSION = 1
SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


def render_text(report: LintReport) -> str:
    """Human/editor-oriented rendering, one finding per line."""
    lines = [finding.render() for finding in report.findings]
    counts = report.counts_by_code()
    if counts:
        summary = ", ".join(f"{code}: {count}" for code, count in counts.items())
        lines.append("")
        lines.append(
            f"{len(report.findings)} finding(s) in "
            f"{report.files_scanned} file(s) ({summary})"
        )
    else:
        lines.append(
            f"clean: {report.files_scanned} file(s), "
            f"{report.suppressed} suppressed, {report.baselined} baselined"
        )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Stable machine-readable rendering (schema version 1)."""
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "files_scanned": report.files_scanned,
        "suppressed": report.suppressed,
        "baselined": report.baselined,
        "counts": report.counts_by_code(),
        "findings": [
            {
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "code": finding.code,
                "rule": finding.rule,
                "message": finding.message,
            }
            for finding in report.findings
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_sarif(report: LintReport) -> str:
    """SARIF 2.1.0 rendering for code-scanning services.

    Emits every registered rule in the tool metadata (so dashboards can
    show zero-finding rules) and one ``result`` per finding.  SARIF
    columns are 1-based while :class:`Finding` columns are 0-based, hence
    the ``+ 1``.
    """
    rules = [
        {
            "id": code,
            "name": rule_class.name,
            "shortDescription": {"text": rule_class.description},
        }
        for code, rule_class in all_rules().items()
    ]
    results = [
        {
            "ruleId": finding.code,
            "level": "warning",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path.replace("\\", "/")},
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        for finding in report.findings
    ]
    payload = {
        "$schema": _SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "reprolint",
                        "informationUri": "https://example.invalid/reprolint",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_prove(report: LintReport) -> str:
    """Verdict table for ``repro lint --prove``.

    One line per contract clause, ``path:line: KIND VERDICT clause``,
    followed by a verdict tally.  ``requires`` clauses are *assumed*
    (they seed the analysis); ``ensures`` clauses are ``proved``,
    ``runtime`` (left to the optional runtime check), or ``violated``.
    """
    lines = []
    tally: dict[str, int] = {}
    for path, verdict in report.contract_verdicts:
        tally[verdict.verdict] = tally.get(verdict.verdict, 0) + 1
        lines.append(
            f"{path}:{verdict.lineno}: {verdict.kind:8s} "
            f"{verdict.verdict:8s} {verdict.qualname}: {verdict.clause}"
        )
    if not lines:
        return "no contract clauses found"
    summary = ", ".join(f"{kind}: {tally[kind]}" for kind in sorted(tally))
    lines.append("")
    lines.append(f"{len(report.contract_verdicts)} clause(s) ({summary})")
    return "\n".join(lines)
