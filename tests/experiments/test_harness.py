"""Tests for the trial-evaluation harness."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import GEE, make_estimators
from repro.core.base import ratio_error
from repro.data import uniform_column, zipf_column
from repro.errors import InvalidParameterError
from repro.experiments import evaluate_column
from repro.frequency import FrequencyProfile
from repro.sampling import UniformWithoutReplacement


class TestEvaluateColumn:
    def test_summary_fields(self, rng):
        column = uniform_column(10_000, 100, rng=rng)
        result = evaluate_column(column, [GEE()], rng, fraction=0.05, trials=4)
        summary = result["GEE"]
        assert summary.trials == 4
        assert summary.true_distinct == 100
        assert summary.mean_ratio_error >= 1.0
        assert summary.max_ratio_error >= summary.mean_ratio_error
        assert summary.std_fraction >= 0.0
        assert result.sampling_fraction == pytest.approx(0.05)

    def test_interval_averaged_for_gee(self, rng):
        column = uniform_column(10_000, 100, rng=rng)
        result = evaluate_column(column, [GEE()], rng, fraction=0.05, trials=3)
        summary = result["GEE"]
        assert summary.mean_lower is not None
        assert summary.mean_lower <= 100 <= summary.mean_upper

    def test_no_interval_for_plain_estimators(self, rng):
        column = uniform_column(10_000, 100, rng=rng)
        estimators = make_estimators(["DUJ2A"])
        result = evaluate_column(column, estimators, rng, fraction=0.05, trials=2)
        assert result["DUJ2A"].mean_lower is None

    def test_multiple_estimators_share_samples(self, rng):
        column = uniform_column(10_000, 100, rng=rng)
        estimators = make_estimators(["GEE", "AE", "SJ"])
        result = evaluate_column(column, estimators, rng, fraction=0.05, trials=2)
        assert set(result.summaries) == {"GEE", "AE", "SJ"}

    def test_absolute_size(self, rng):
        column = uniform_column(10_000, 100, rng=rng)
        result = evaluate_column(column, [GEE()], rng, size=500, trials=2)
        assert result.sample_size == 500

    def test_single_trial_zero_variance(self, rng):
        column = uniform_column(10_000, 100, rng=rng)
        result = evaluate_column(column, [GEE()], rng, fraction=0.05, trials=1)
        assert result["GEE"].std_fraction == 0.0

    def test_validation(self, rng):
        column = uniform_column(1000, 10, rng=rng)
        with pytest.raises(InvalidParameterError):
            evaluate_column(column, [GEE()], rng, fraction=0.1, trials=0)
        with pytest.raises(InvalidParameterError):
            evaluate_column(column, [], rng, fraction=0.1)

    def test_relative_error_property(self, rng):
        column = uniform_column(10_000, 100, rng=rng)
        result = evaluate_column(column, [GEE()], rng, fraction=0.2, trials=2)
        summary = result["GEE"]
        expected = (summary.mean_estimate - 100) / 100
        assert summary.mean_relative_error == pytest.approx(expected)


class TestRealizedSampleSize:
    def test_bernoulli_reports_mean_over_trials(self, rng):
        # Bernoulli's realized size varies per trial; the result must
        # report the rounded mean, not whichever size the last trial
        # happened to draw (the pre-batch behaviour).
        from repro.sampling import Bernoulli

        column = uniform_column(10_000, 100, rng=rng)
        result = evaluate_column(
            column, [GEE()], rng, fraction=0.05, trials=8, sampler=Bernoulli()
        )
        # Frozen from the serial per-trial sizes under this seed:
        # [526, 488, 474, 503, 459, 501, 472, 509] -> mean 491.5 -> 492;
        # the old last-trial report would have said 509.
        assert result.sample_size == 492

    def test_fixed_size_schemes_unaffected(self, rng):
        column = uniform_column(10_000, 100, rng=rng)
        result = evaluate_column(column, [GEE()], rng, size=500, trials=5)
        assert result.sample_size == 500


class TestKernelTierIdentity:
    """``evaluate_column`` vs drawing, profiling and estimating one trial at a time."""

    ESTIMATORS = [
        "GEE", "AE", "Shlosser", "ModShlosser", "SJ", "UJ2", "JK1",
        "JK2", "Chao84", "Scale", "HYBGEE", "HYBSKEW", "HYBVAR", "DUJ2A",
    ]
    TRIALS = 6

    def _reference(self, column):
        """Per trial: draw, ``from_sample``, then each scalar ``estimate``."""
        rng = np.random.default_rng(97)
        sampler = UniformWithoutReplacement()
        profiles = [
            FrequencyProfile.from_sample(
                sampler.sample(column.values, rng, fraction=0.05)
            )
            for _ in range(self.TRIALS)
        ]
        truth = column.distinct_count
        summaries = {}
        for estimator in make_estimators(self.ESTIMATORS):
            outcomes = [estimator.estimate(p, column.n_rows) for p in profiles]
            values = [outcome.value for outcome in outcomes]
            errors = [ratio_error(v, truth) for v in values]
            mean = math.fsum(values) / self.TRIALS
            variance = math.fsum((v - mean) ** 2 for v in values) / (self.TRIALS - 1)
            fields = {
                "mean_estimate": mean,
                "mean_ratio_error": math.fsum(errors) / self.TRIALS,
                "max_ratio_error": max(errors),
                "std_fraction": math.sqrt(variance) / truth,
            }
            intervals = [o.interval for o in outcomes if o.interval is not None]
            if intervals:
                count = len(intervals)
                fields["mean_lower"] = math.fsum(i.lower for i in intervals) / count
                fields["mean_upper"] = math.fsum(i.upper for i in intervals) / count
            summaries[estimator.name] = fields
        return summaries

    def test_matches_the_per_trial_reference(self):
        column = zipf_column(20_000, 1.2, rng=np.random.default_rng(31))
        result = evaluate_column(
            column,
            make_estimators(self.ESTIMATORS),
            np.random.default_rng(97),
            fraction=0.05,
            trials=self.TRIALS,
        )
        reference = self._reference(column)
        assert set(result.summaries) == set(reference) == set(self.ESTIMATORS)
        for name, fields in reference.items():
            for field, want in fields.items():
                got = getattr(result[name], field)
                assert got.hex() == want.hex(), (name, field)
