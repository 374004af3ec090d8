"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core import available_estimators


class TestListEstimators:
    def test_lists_everything(self, capsys):
        assert main(["list-estimators"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(available_estimators())


class TestGenerateAndEstimate:
    def test_roundtrip_npy(self, tmp_path, capsys):
        out = tmp_path / "col.npy"
        assert (
            main(
                [
                    "generate",
                    "--rows", "10000",
                    "--z", "1",
                    "--duplication", "10",
                    "--out", str(out),
                ]
            )
            == 0
        )
        assert "10,000 rows" in capsys.readouterr().out
        assert (
            main(
                [
                    "estimate", str(out),
                    "--fraction", "0.1",
                    "--estimator", "GEE", "AE",
                    "--exact",
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "GEE" in text and "AE" in text and "exact" in text

    def test_text_file_input(self, tmp_path, capsys):
        path = tmp_path / "col.txt"
        path.write_text("".join(f"{i % 7}\n" for i in range(1000)))
        assert main(["estimate", str(path), "--fraction", "0.5"]) == 0
        assert "sampled r=500" in capsys.readouterr().out

    def test_string_values_supported(self, tmp_path, capsys):
        path = tmp_path / "col.txt"
        path.write_text("apple\nbanana\napple\ncherry\n" * 100)
        assert main(["estimate", str(path), "--fraction", "0.5"]) == 0
        assert "d=3" in capsys.readouterr().out

    def test_missing_file_is_clean_error(self, capsys):
        assert main(["estimate", "/no/such/file.npy"]) == 2
        assert "error:" in capsys.readouterr().err


class TestExhibit:
    def test_prints_table(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "100")
        monkeypatch.setenv("REPRO_TRIALS", "2")
        assert main(["exhibit", "table1"]) == 0
        out = capsys.readouterr().out
        assert "LOWER" in out and "UPPER" in out

    def test_csv_export(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "100")
        monkeypatch.setenv("REPRO_TRIALS", "2")
        csv = tmp_path / "fig.csv"
        assert main(["exhibit", "table1", "--csv", str(csv)]) == 0
        assert csv.read_text().startswith("rate,")

    def test_sweep_prints_the_exhibit_bytes(self, tmp_path, capsys, monkeypatch):
        # One process: the sweep may read the exhibit's memoized sweep,
        # then a fresh supervised sweep must print the same bytes too.
        import os

        from repro.experiments.executor import clear_memo

        monkeypatch.setenv("REPRO_SCALE", "20")
        monkeypatch.setenv("REPRO_TRIALS", "3")
        monkeypatch.chdir(tmp_path)
        environ = dict(os.environ)
        clear_memo()
        try:
            assert main(["exhibit", "fig5", "--csv", "exhibit.csv"]) == 0
            assert main(["sweep", "fig5", "--csv", "sweep.csv"]) == 0
            clear_memo()
            assert main(["sweep", "fig5", "--csv", "fresh.csv"]) == 0
        finally:
            clear_memo()
        exhibit = (tmp_path / "exhibit.csv").read_bytes()
        assert (tmp_path / "sweep.csv").read_bytes() == exhibit
        assert (tmp_path / "fresh.csv").read_bytes() == exhibit
        assert dict(os.environ) == environ


class TestBound:
    def test_floor(self, capsys):
        assert (
            main(["bound", "--rows", "1000000", "--sample-size", "200000"]) == 0
        )
        assert "1.177" in capsys.readouterr().out

    def test_inversion(self, capsys):
        assert (
            main(["bound", "--rows", "1000000", "--target-error", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert "requires examining" in out

    def test_missing_spec_is_error(self, capsys):
        assert main(["bound", "--rows", "1000"]) == 2


class TestModuleEntry:
    def test_python_dash_m(self, tmp_path):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "list-estimators"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "GEE" in result.stdout


class TestPlan:
    def test_brackets_printed(self, capsys):
        assert (
            main(["plan", "--rows", "1000000", "--target-error", "5"]) == 0
        )
        out = capsys.readouterr().out
        assert "necessary" in out and "sufficient" in out

    def test_full_scan_note(self, capsys):
        assert (
            main(["plan", "--rows", "1000", "--target-error", "1.01"]) == 0
        )
        assert "full scan" in capsys.readouterr().out


class TestReport:
    def test_writes_csv_txt_and_summary(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "100")
        monkeypatch.setenv("REPRO_TRIALS", "2")
        out = tmp_path / "report"
        assert (
            main(
                ["report", "--out", str(out), "--only", "table1", "theorem1"]
            )
            == 0
        )
        assert (out / "table1.csv").exists()
        assert (out / "table1.txt").exists()
        assert (out / "theorem1.csv").exists()
        assert "table1" in (out / "REPORT.txt").read_text()


class TestCsvInput:
    def test_estimate_from_csv(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        rows = "\n".join(f"{i},{i % 50}" for i in range(2000))
        path.write_text("id,bucket\n" + rows + "\n")
        assert (
            main(
                [
                    "estimate", str(path),
                    "--csv-column", "bucket",
                    "--fraction", "0.25",
                ]
            )
            == 0
        )
        assert "d=50" in capsys.readouterr().out

    def test_csv_without_column_is_error(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("a\n1\n")
        assert main(["estimate", str(path)]) == 2
        assert "column=" in capsys.readouterr().err


class TestSqlCommand:
    def _people_csv(self, tmp_path):
        path = tmp_path / "people.csv"
        rows = "\n".join(f"{i},{i % 40},{i % 7}" for i in range(4000))
        path.write_text("id,city,grade\n" + rows + "\n")
        return path

    def test_exact_distinct(self, tmp_path, capsys):
        path = self._people_csv(tmp_path)
        assert (
            main(
                [
                    "sql",
                    "SELECT COUNT(DISTINCT city) FROM people",
                    "--load", f"people={path}",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.startswith("40")
        assert "exact" in out

    def test_sampled_distinct_with_interval(self, tmp_path, capsys):
        path = self._people_csv(tmp_path)
        assert (
            main(
                [
                    "sql",
                    "SELECT COUNT(DISTINCT city) FROM people SAMPLE 25% USING GEE",
                    "--load", f"people={path}",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "estimated by GEE" in out and "interval" in out

    def test_group_by(self, tmp_path, capsys):
        path = self._people_csv(tmp_path)
        assert (
            main(
                [
                    "sql",
                    "SELECT grade, COUNT(*) FROM people GROUP BY grade",
                    "--load", f"people={path}",
                ]
            )
            == 0
        )
        assert "(7 groups)" in capsys.readouterr().out

    def test_bad_load_spec(self, capsys):
        assert main(["sql", "SELECT COUNT(DISTINCT c) FROM t", "--load", "oops"]) == 2
        assert "name=path" in capsys.readouterr().err


class TestTraceAndStats:
    def _run_file(self, tmp_path):
        import json

        records = [
            {
                "ev": "manifest",
                "data": {
                    "command": "exhibit",
                    "seed": 3,
                    "knobs": {"REPRO_SCALE": "2"},
                },
            },
            {
                "ev": "span",
                "id": 2,
                "parent": 1,
                "name": "sample.srswor",
                "t": 0.0,
                "dur": 0.25,
                "attrs": {"trials": 10},
            },
            {
                "ev": "span",
                "id": 1,
                "parent": None,
                "name": "sweep.run",
                "t": 0.0,
                "dur": 1.0,
            },
            {"ev": "counter", "name": "sample.trials", "value": 10},
            {"ev": "counter", "name": "estimator.calls.GEE", "value": 500},
            {"ev": "gauge", "name": "sweep.realized_workers", "value": 2},
            {
                "ev": "hist",
                "name": "sample.srswor",
                "k": 20,
                "zero": 0,
                "buckets": [[-13, 9], [-12, 1]],
            },
        ]
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join(json.dumps(record) for record in records) + "\n")
        return path

    def test_trace_renders_the_span_tree(self, tmp_path, capsys):
        assert main(["trace", str(self._run_file(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "sweep.run" in out
        assert "sample.srswor" in out
        assert "trials=10" in out
        assert "(25.0% of sweep.run attributed to child spans)" in out

    def test_trace_min_fraction_filters(self, tmp_path, capsys):
        path = self._run_file(tmp_path)
        assert main(["trace", str(path), "--min-fraction", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "sweep.run" in out
        assert "sample.srswor" not in out

    def test_stats_renders_counters_and_manifest(self, tmp_path, capsys):
        assert main(["stats", str(self._run_file(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "sample.trials" in out
        assert "sweep.realized_workers" in out
        assert "command: exhibit" in out
        assert "knob REPRO_SCALE=2" in out

    def test_stats_sorts_counters_by_value_descending(self, tmp_path, capsys):
        assert main(["stats", str(self._run_file(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert out.index("estimator.calls.GEE") < out.index("sample.trials")

    def test_stats_renders_histogram_quantiles(self, tmp_path, capsys):
        assert main(["stats", str(self._run_file(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "quantiles:" in out
        assert "n=10" in out
        assert "p50=" in out and "p99=" in out

    def test_trace_chrome_export(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "trace.json"
        assert main(
            ["trace", str(self._run_file(tmp_path)), "--chrome", str(out_path)]
        ) == 0
        assert "wrote Chrome trace" in capsys.readouterr().out
        document = json.loads(out_path.read_text())
        names = [e["name"] for e in document["traceEvents"] if e["ph"] == "X"]
        assert names == ["sample.srswor", "sweep.run"]

    def test_trace_flame_to_file_and_stdout(self, tmp_path, capsys):
        run = self._run_file(tmp_path)
        out_path = tmp_path / "stacks.folded"
        assert main(["trace", str(run), "--flame", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["trace", str(run), "--flame"]) == 0
        stdout = capsys.readouterr().out
        assert stdout == out_path.read_text()
        assert "sweep.run;sample.srswor 250000" in stdout

    def test_trace_missing_file_is_clean_error(self, capsys):
        assert main(["trace", "/no/such/run.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stats_bad_json_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        path.write_text("not json\n")
        assert main(["stats", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestLogLevelFlag:
    def test_invalid_level_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--log-level", "loud", "list-estimators"])

    def test_error_path_routes_through_the_logger(self, capsys):
        assert main(["--log-level", "error", "estimate", "/no/such/file.npy"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_verbose_flag_counts(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["-vv", "list-estimators"])
        assert args.verbose == 2
        assert args.log_level == "warning"


class TestTelemetryFlush:
    def _flush_run(self, tmp_path, monkeypatch, argv):
        from repro.obs import OBS

        tdir = tmp_path / "telemetry"
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tdir))
        OBS.reset()
        OBS.enable()
        try:
            assert main(argv) == 0
        finally:
            OBS.disable()
            OBS.reset()
        return tdir

    def test_run_and_manifest_written(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "col.npy"
        tdir = self._flush_run(
            tmp_path,
            monkeypatch,
            ["-v", "generate", "--rows", "1000", "--z", "1", "--out", str(out)],
        )
        assert (tdir / "generate.jsonl").exists()
        assert "telemetry run written" in capsys.readouterr().err

        from repro.obs import read_manifest

        manifest = read_manifest(tdir / "generate.manifest.json")
        assert manifest["command"] == "generate"
        assert manifest["seed"] == 0
        assert manifest["knobs"]["REPRO_TELEMETRY"] == "1"

        assert main(["trace", str(tdir / "generate.jsonl")]) == 0
        assert "data.zipf_column" in capsys.readouterr().out

    def test_stats_shows_the_branch_each_hybrid_took(
        self, tmp_path, capsys, monkeypatch
    ):
        column = tmp_path / "col.npy"
        assert main(
            ["generate", "--rows", "20000", "--z", "2", "--out", str(column)]
        ) == 0
        hybrids = ["HYBSKEW", "HYBGEE", "HYBVAR"]
        tdir = self._flush_run(
            tmp_path,
            monkeypatch,
            ["estimate", str(column), "--fraction", "0.05", "--estimator", *hybrids],
        )
        capsys.readouterr()
        assert main(["stats", str(tdir / "estimate.jsonl")]) == 0
        out = capsys.readouterr().out
        # Z = 2 is high skew: the chi-squared gate sends HYBSKEW to
        # Shlosser and HYBGEE to GEE.
        assert "estimator.branch.HYBSKEW.Shlosser" in out
        assert "estimator.branch.HYBGEE.GEE" in out
        assert "estimator.branch.HYBVAR." in out

    def test_flush_note_hidden_without_verbose(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "col.npy"
        self._flush_run(
            tmp_path,
            monkeypatch,
            ["generate", "--rows", "1000", "--z", "1", "--out", str(out)],
        )
        assert "telemetry run written" not in capsys.readouterr().err

    def test_nothing_written_when_disabled(self, tmp_path, capsys, monkeypatch):
        tdir = tmp_path / "telemetry"
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tdir))
        out = tmp_path / "col.npy"
        assert (
            main(["generate", "--rows", "1000", "--z", "1", "--out", str(out)]) == 0
        )
        assert not tdir.exists()

    def test_sweep_manifest_records_the_retry_budget_it_ran(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments.executor import clear_memo
        from repro.obs import read_manifest

        monkeypatch.setenv("REPRO_SCALE", "100")
        monkeypatch.setenv("REPRO_TRIALS", "2")
        monkeypatch.chdir(tmp_path)
        clear_memo()
        try:
            tdir = self._flush_run(
                tmp_path, monkeypatch, ["sweep", "table1", "--retries", "4"]
            )
        finally:
            clear_memo()
        manifest = read_manifest(tdir / "sweep.manifest.json")
        assert manifest["retries"] == 4
        assert manifest["timeout"] is None

    def test_manifest_carries_histogram_quantiles(self, tmp_path, monkeypatch):
        out = tmp_path / "col.npy"
        tdir = self._flush_run(
            tmp_path,
            monkeypatch,
            ["generate", "--rows", "1000", "--z", "1", "--out", str(out)],
        )
        from repro.obs import read_manifest

        manifest = read_manifest(tdir / "generate.manifest.json")
        quantiles = manifest["quantiles"]
        # Every span name recorded a duration histogram; summaries carry
        # the standard quantile set.
        assert "data.zipf_column" in quantiles
        summary = quantiles["data.zipf_column"]
        assert summary["count"] >= 1
        assert set(summary) == {"count", "p50", "p90", "p95", "p99"}


class TestPerfdiff:
    def _write(self, tmp_path, name, document):
        import json

        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    def test_no_regression_exits_zero(self, tmp_path, capsys):
        before = self._write(
            tmp_path, "before.json", {"exhibits": {"fig1": 1.0}, "total_seconds": 1.0}
        )
        after = self._write(
            tmp_path, "after.json", {"exhibits": {"fig1": 1.1}, "total_seconds": 1.1}
        )
        assert main(["perfdiff", before, after]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        before = self._write(tmp_path, "before.json", {"exhibits": {"fig1": 1.0}})
        after = self._write(tmp_path, "after.json", {"exhibits": {"fig1": 2.0}})
        assert main(["perfdiff", before, after]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_threshold_flag(self, tmp_path):
        before = self._write(tmp_path, "before.json", {"exhibits": {"fig1": 1.0}})
        after = self._write(tmp_path, "after.json", {"exhibits": {"fig1": 1.5}})
        assert main(["perfdiff", before, after, "--threshold", "0.6"]) == 0
        assert main(["perfdiff", before, after, "--threshold", "0.4"]) == 1

    def test_missing_input_is_clean_error(self, tmp_path, capsys):
        after = self._write(tmp_path, "after.json", {"exhibits": {}})
        assert main(["perfdiff", str(tmp_path / "absent.json"), after]) == 2
        assert "error:" in capsys.readouterr().err

    def test_gate_mode_passes_and_fails(self, tmp_path, capsys):
        baseline = self._write(
            tmp_path,
            "baseline.json",
            {"tolerance": 0.25, "kernels": {"reduction": {"speedup": 2.0}}},
        )
        good = self._write(
            tmp_path, "good.json", {"kernels": {"reduction": {"speedup": 1.9}}}
        )
        bad = self._write(
            tmp_path, "bad.json", {"kernels": {"reduction": {"speedup": 1.0}}}
        )
        assert main(["perfdiff", "--gate", baseline, good]) == 0
        capsys.readouterr()
        assert main(["perfdiff", "--gate", baseline, bad]) == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "FAIL" in captured.err


class TestReportManifest:
    def test_report_writes_a_manifest(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "100")
        monkeypatch.setenv("REPRO_TRIALS", "2")
        out = tmp_path / "report"
        assert main(["report", "--out", str(out), "--only", "theorem1"]) == 0

        from repro.obs import read_manifest

        manifest = read_manifest(out / "manifest.json")
        assert manifest["command"] == "report"
        assert manifest["exhibits"] == ["theorem1"]
