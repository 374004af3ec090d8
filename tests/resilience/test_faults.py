"""Tests for the deterministic fault-injection framework."""

from __future__ import annotations

import pytest

from repro.errors import InjectedFaultError, InvalidParameterError
from repro.obs import OBS
from repro.resilience import FaultRule, fault_plan, parse_faults, reload_faults


class TestGrammar:
    def test_single_clause(self):
        plan = parse_faults("sweep.point:crash@0.1")
        rule = plan.rule_for("sweep.point")
        assert rule == FaultRule("sweep.point", "crash", 0.1, 0.0)
        assert plan.enabled

    def test_multiple_clauses_and_whitespace(self):
        plan = parse_faults(" sweep.point:crash@0.1 ; journal.write:delay@0.05 ")
        assert plan.rule_for("sweep.point").kind == "crash"
        assert plan.rule_for("journal.write").kind == "delay"

    def test_delay_and_hang_have_default_seconds(self):
        plan = parse_faults("sweep.point:delay@1.0;journal.write:hang@1.0")
        assert plan.rule_for("sweep.point").seconds == 0.01
        assert plan.rule_for("journal.write").seconds == 30.0

    def test_explicit_seconds_override(self):
        plan = parse_faults("sweep.point:delay@0.5:0.25")
        assert plan.rule_for("sweep.point").seconds == 0.25

    def test_empty_spec_is_disabled(self):
        plan = parse_faults("")
        assert not plan.enabled
        plan.consult("sweep.point", key=0)  # must be a silent no-op

    @pytest.mark.parametrize(
        "spec",
        [
            "unknown.site:crash@0.1",
            "sampler.profile:crash@0.1",
            "harness.evaluate:crash@0.1",
            "db.scan:crash@0.1",
            "sweep.point:meteor@0.1",
            "sweep.point:crash@1.5",
            "sweep.point:crash@-0.1",
            "sweep.point:crash@oops",
            "sweep.point:crash",
            "sweep.point",
            "sweep.point:delay@0.5:-1",
            "sweep.point:delay@0.5:soon",
        ],
    )
    def test_bad_specs_are_rejected(self, spec):
        with pytest.raises(InvalidParameterError):
            parse_faults(spec)


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        a = parse_faults("sweep.point:crash@0.5", seed=3)
        b = parse_faults("sweep.point:crash@0.5", seed=3)
        for key in range(64):
            fired_a = fired_b = False
            try:
                a.consult("sweep.point", key=key)
            except InjectedFaultError:
                fired_a = True
            try:
                b.consult("sweep.point", key=key)
            except InjectedFaultError:
                fired_b = True
            assert fired_a == fired_b

    def test_different_seeds_differ_somewhere(self):
        a = parse_faults("sweep.point:crash@0.5", seed=0)
        b = parse_faults("sweep.point:crash@0.5", seed=1)
        decisions = []
        for plan in (a, b):
            fired = []
            for key in range(64):
                try:
                    plan.consult("sweep.point", key=key)
                    fired.append(False)
                except InjectedFaultError:
                    fired.append(True)
            decisions.append(fired)
        assert decisions[0] != decisions[1]

    def test_attempt_redraws_so_retries_can_succeed(self):
        plan = parse_faults("sweep.point:crash@0.5", seed=0)
        recovered = 0
        for key in range(64):
            try:
                plan.consult("sweep.point", key=key, attempt=0)
            except InjectedFaultError:
                try:
                    plan.consult("sweep.point", key=key, attempt=1)
                    recovered += 1
                except InjectedFaultError:
                    pass
        assert recovered > 0

    def test_probability_bounds(self):
        never = parse_faults("sweep.point:crash@0.0")
        always = parse_faults("sweep.point:crash@1.0")
        for key in range(16):
            never.consult("sweep.point", key=key)
            with pytest.raises(InjectedFaultError):
                always.consult("sweep.point", key=key)


class TestEnvironment:
    def test_fault_plan_reads_env(self, set_faults):
        plan = set_faults("sweep.point:crash@1.0", seed=5)
        assert plan.enabled
        assert fault_plan() is plan

    def test_unset_env_is_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert not reload_faults().enabled

    def test_bad_fault_seed_is_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "sweep.point:crash@1.0")
        monkeypatch.setenv("REPRO_FAULT_SEED", "lots")
        with pytest.raises(InvalidParameterError, match="REPRO_FAULT_SEED"):
            reload_faults()


class TestTelemetry:
    def test_injections_are_counted(self):
        plan = parse_faults("sweep.point:crash@1.0")
        OBS.begin_capture()
        try:
            with pytest.raises(InjectedFaultError):
                plan.consult("sweep.point", key=0)
            counters = OBS.counters()
            assert counters["resilience.faults_injected"] == 1
            assert counters["resilience.faults_injected.sweep.point"] == 1
        finally:
            OBS.drain()
            OBS.disable()
