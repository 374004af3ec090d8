"""Fixture tests for the whole-program determinism rules (R1001, R1002).

Both rules consume the interprocedural taint summaries; the fixtures
exercise each source family against estimator-stack sinks plus the
sanitized/clean counterparts that must stay silent.
"""

from __future__ import annotations

from tests.analysis.conftest import lint_fixture, lint_text


class TestNondetTaint:
    def findings(self):
        return lint_fixture("fixture_r1001.py", ["R1001"])

    def test_flags_every_bad_function_once(self):
        lines = [finding.line for finding in self.findings()]
        # def lines of bad_clock_result, bad_unseeded_rng, bad_env_result,
        # bad_imported_env_result, bad_hash_result, bad_transitive, and
        # of the four readers of module-level names an environ read binds.
        assert lines == [10, 14, 19, 23, 27, 31, 59, 63, 67, 71]

    def test_messages_name_function_label_and_evidence(self):
        findings = self.findings()
        clock = findings[0]
        assert clock.code == "R1001"
        assert "bad_clock_result" in clock.message
        assert "clock" in clock.message
        assert "estimator/results stack" in clock.message

    def test_transitive_finding_blames_the_callee(self):
        transitive = self.findings()[5]
        assert "bad_transitive" in transitive.message
        assert "bad_clock_result" in transitive.message

    def test_label_coverage(self):
        text = " ".join(finding.message for finding in self.findings())
        for label in ("clock", "rng", "env", "identity"):
            assert label in text

    def test_clean_functions_stay_silent(self):
        messages = " ".join(finding.message for finding in self.findings())
        assert "good_" not in messages

    def test_obs_package_is_exempt(self):
        assert not lint_text(
            "import time\n"
            "def span_duration():\n"
            "    return time.time()\n",
            ["R1001"],
            virtual_path="repro/obs/fixture.py",
        )

    def test_non_sink_module_is_silent_without_artifact_write(self):
        assert not lint_text(
            "import time\n"
            "def helper():\n"
            "    return time.time()\n",
            ["R1001"],
            virtual_path="repro/experiments/fixture.py",
        )

    def test_artifact_payload_is_a_sink_anywhere(self):
        findings = lint_text(
            "import time\n"
            "from repro.resilience import atomic_write\n"
            "def record(path):\n"
            "    atomic_write(path, str(time.time()))\n",
            ["R1001"],
            virtual_path="repro/experiments/fixture.py",
        )
        assert [finding.line for finding in findings] == [4]
        assert "atomic_write" in findings[0].message

    def test_clock_imported_under_an_alias_is_a_source(self):
        findings = lint_text(
            "from time import perf_counter as pc\n"
            "def stamp():\n"
            "    return pc()\n",
            ["R1001"],
        )
        assert [finding.line for finding in findings] == [2]
        assert "pc() reads a process clock" in findings[0].message

    def test_getenv_imported_under_an_alias_is_a_source(self):
        findings = lint_text(
            "from os import getenv as read_env\n"
            "def scale():\n"
            "    return read_env('SCALE')\n",
            ["R1001"],
        )
        assert [finding.line for finding in findings] == [2]
        assert "os.getenv() read" in findings[0].message

    def test_environ_imported_by_name_is_a_source_unless_rebound(self):
        findings = lint_text(
            "from os import environ\n"
            "def scale():\n"
            "    return environ['SCALE']\n",
            ["R1001"],
        )
        assert [finding.line for finding in findings] == [2]
        assert "os.environ read" in findings[0].message
        assert not lint_text(
            "from os import environ\n"
            "environ = {'SCALE': '1'}\n"
            "def scale():\n"
            "    return environ['SCALE']\n",
            ["R1001"],
        )

    def test_suppression_pragma_is_honored(self):
        assert not lint_text(
            "import time\n"
            "def stamp():  # reprolint: disable=R1001 - test pragma\n"
            "    return time.time()\n",
            ["R1001"],
        )


class TestOrderSensitivity:
    def findings(self):
        return lint_fixture("fixture_r1002.py", ["R1002"])

    def test_flags_every_bad_function_once(self):
        lines = [finding.line for finding in self.findings()]
        # def lines of bad_sum_over_set, bad_listing_order, bad_set_comp.
        assert lines == [6, 11, 15]

    def test_message_names_the_order_hazard(self):
        first = self.findings()[0]
        assert first.code == "R1002"
        assert "set-order" in first.message
        assert "sort before reducing" in first.message

    def test_sanitized_functions_stay_silent(self):
        messages = " ".join(finding.message for finding in self.findings())
        assert "good_" not in messages

    def test_sorted_serialization_is_clean(self):
        assert not lint_text(
            "import json\n"
            "from repro.resilience import atomic_write\n"
            "def dump(path, values):\n"
            "    atomic_write(path, json.dumps(sorted(set(values))))\n",
            ["R1002"],
        )

    def test_unsorted_serialization_is_flagged(self):
        findings = lint_text(
            "import json\n"
            "from repro.resilience import atomic_write\n"
            "def dump(path, values):\n"
            "    atomic_write(path, json.dumps(list(set(values))))\n",
            ["R1002"],
        )
        assert [finding.line for finding in findings] == [4]
