"""Tier-1 gate: the shipped source tree must lint clean.

This is the analyzer eating its own cooking — every rule runs over
``src/`` exactly as ``repro lint src`` would (the session's shared
``src_lint`` run), and any surviving finding fails the suite.  Accepted
violations must carry an explicit ``# reprolint: disable=CODE - reason``
pragma at the offending line, so the debt stays visible in the diff.
"""

from __future__ import annotations


def test_source_tree_is_lint_clean(src_lint):
    report = src_lint.report
    rendered = "\n".join(finding.render() for finding in report.findings)
    assert report.exit_code == 0, f"reprolint findings in src/:\n{rendered}"
    assert report.parse_errors == 0


def test_source_tree_scan_is_substantial(src_lint):
    # Guard against the gate silently scanning nothing (e.g. a moved tree).
    assert src_lint.report.files_scanned > 50
