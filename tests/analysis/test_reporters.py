"""Text, JSON, SARIF, and prove-table reporter output."""

from __future__ import annotations

import json

from repro.analysis.dataflow.engine import ClauseVerdict
from repro.analysis.findings import Finding
from repro.analysis.reporters import (
    JSON_SCHEMA_VERSION,
    SARIF_VERSION,
    render_json,
    render_prove,
    render_sarif,
    render_text,
)
from repro.analysis.rules import all_rules
from repro.analysis.runner import LintReport


def _report():
    findings = [
        Finding(
            path="src/repro/x.py",
            line=10,
            col=4,
            code="R101",
            message="divisor 'f2' may be zero",
            rule="unguarded-division",
        ),
        Finding(
            path="src/repro/y.py",
            line=3,
            col=0,
            code="R201",
            message="float literal compared with '=='",
            rule="float-equality",
        ),
    ]
    return LintReport(findings=findings, files_scanned=5, suppressed=2, baselined=1)


class TestTextReporter:
    def test_findings_render_as_path_line_col_code(self):
        text = render_text(_report())
        assert "src/repro/x.py:10:4: R101 divisor 'f2' may be zero" in text
        assert text.splitlines()[-1] == "2 finding(s) in 5 file(s) (R101: 1, R201: 1)"

    def test_clean_summary_mentions_suppression_counts(self):
        text = render_text(LintReport(files_scanned=7, suppressed=3, baselined=2))
        assert text == "clean: 7 file(s), 3 suppressed, 2 baselined"


class TestJsonReporter:
    def test_schema_fields(self):
        payload = json.loads(render_json(_report()))
        assert payload["version"] == JSON_SCHEMA_VERSION == 1
        assert payload["files_scanned"] == 5
        assert payload["suppressed"] == 2
        assert payload["baselined"] == 1
        assert payload["counts"] == {"R101": 1, "R201": 1}
        assert len(payload["findings"]) == 2
        assert payload["findings"][0] == {
            "path": "src/repro/x.py",
            "line": 10,
            "col": 4,
            "code": "R101",
            "rule": "unguarded-division",
            "message": "divisor 'f2' may be zero",
        }

    def test_clean_report_serializes(self):
        payload = json.loads(render_json(LintReport(files_scanned=1)))
        assert payload["findings"] == []
        assert payload["counts"] == {}


class TestSarifReporter:
    def test_envelope(self):
        payload = json.loads(render_sarif(_report()))
        assert payload["version"] == SARIF_VERSION == "2.1.0"
        assert payload["$schema"].endswith("sarif-2.1.0.json")
        assert len(payload["runs"]) == 1
        assert payload["runs"][0]["tool"]["driver"]["name"] == "reprolint"

    def test_all_registered_rules_in_metadata(self):
        payload = json.loads(render_sarif(LintReport(files_scanned=1)))
        rule_ids = {
            rule["id"] for rule in payload["runs"][0]["tool"]["driver"]["rules"]
        }
        assert rule_ids == set(all_rules())

    def test_result_location_is_one_based(self):
        payload = json.loads(render_sarif(_report()))
        result = payload["runs"][0]["results"][0]
        assert result["ruleId"] == "R101"
        assert result["level"] == "warning"
        assert result["message"]["text"] == "divisor 'f2' may be zero"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/x.py"
        # Finding columns are 0-based; SARIF columns are 1-based.
        assert location["region"] == {"startLine": 10, "startColumn": 5}

    def test_clean_report_has_empty_results(self):
        payload = json.loads(render_sarif(LintReport(files_scanned=3)))
        assert payload["runs"][0]["results"] == []


class TestProveReporter:
    def _report_with_verdicts(self):
        report = LintReport(files_scanned=1)
        report.contract_verdicts = [
            (
                "src/repro/core/gee.py",
                ClauseVerdict(
                    qualname="gee_coefficient",
                    kind="ensures",
                    clause="result > 0.0",
                    lineno=12,
                    verdict="proved",
                ),
            ),
            (
                "src/repro/core/gee.py",
                ClauseVerdict(
                    qualname="gee_coefficient",
                    kind="requires",
                    clause="r >= 1",
                    lineno=12,
                    verdict="assumed",
                ),
            ),
        ]
        return report

    def test_table_lines_and_tally(self):
        text = render_prove(self._report_with_verdicts())
        lines = text.splitlines()
        assert lines[0].startswith("src/repro/core/gee.py:12: ensures ")
        assert "proved" in lines[0]
        assert lines[0].endswith("gee_coefficient: result > 0.0")
        assert lines[-1] == "2 clause(s) (assumed: 1, proved: 1)"

    def test_empty_report(self):
        assert render_prove(LintReport()) == "no contract clauses found"
