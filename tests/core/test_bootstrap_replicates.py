"""Bootstrap replicates against the per-replicate code they replaced.

A replicate used to rebuild the sample's class counts from Python lists
and re-count the drawn multiplicities one by one.  Now the class shares
are computed once per sample, all of a sample's count vectors come from
one ``rng.multinomial(r, shares, size=replicates)``, and the counting is
done by :class:`collections.Counter`.  The old code is kept here as the
oracle: every replicate profile (dict insertion order included), every
summary field to the bit and the generator's end state must match it.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core import ConfidenceInterval, make_estimators
from repro.core.uncertainty import (
    BootstrapSummary,
    bootstrap_estimate,
    bootstrap_profile,
)
from repro.data.synthetic import bounded_scaleup_column
from repro.errors import InvalidSampleError
from repro.frequency import FrequencyProfile
from repro.sampling import UniformWithoutReplacement

#: The estimators the stability exhibit bootstraps.
STABILITY_SUITE = ("AE", "GEE", "HYBGEE", "HYBSKEW", "HYBVAR", "DUJ2A")


# ----------------------------------------------------------------------
# The oracle: the per-replicate code before the batched draw
# ----------------------------------------------------------------------
def _old_from_multiplicities(multiplicities):
    counter: Counter[int] = Counter()
    for multiplicity in multiplicities:
        mult = int(multiplicity)
        if mult <= 0:
            raise InvalidSampleError(
                f"multiplicities must be positive, got {multiplicity!r}"
            )
        counter[mult] += 1
    return FrequencyProfile(counter)


def _old_bootstrap_profile(profile, rng):
    r = profile.sample_size
    counts = np.repeat(
        [i for i, _ in profile], [c for _, c in profile]
    ).astype(np.float64)
    draws = rng.multinomial(r, counts / r)
    return _old_from_multiplicities(draws[draws > 0].tolist())


def _old_bootstrap_estimate(estimator, profile, population_size, rng, replicates):
    confidence = 0.95
    point = estimator.estimate(profile, population_size).value
    values = np.empty(replicates)
    for index in range(replicates):
        replicate = _old_bootstrap_profile(profile, rng)
        values[index] = estimator.estimate(replicate, population_size).value
    tail = (1.0 - confidence) / 2.0
    q_lo, q_hi = np.quantile(values, [tail, 1.0 - tail])
    half_width = float(q_hi - q_lo) / 2.0
    lower = min(
        max(point - half_width, float(profile.distinct)), float(population_size)
    )
    upper = min(max(point + half_width, lower), float(population_size))
    return BootstrapSummary(
        estimate=point,
        interval=ConfidenceInterval(float(lower), float(upper)),
        std=float(values.std(ddof=1)) if replicates > 1 else 0.0,
        replicates=replicates,
        confidence=confidence,
    )


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stability_samples() -> list[FrequencyProfile]:
    """Samples as the stability exhibit draws them at paper scale."""
    rng = np.random.default_rng(0)
    column = bounded_scaleup_column(1_000_000, base_rows=1000, z=2.0, rng=rng)
    sampler = UniformWithoutReplacement()
    return [sampler.profile(column.values, rng, fraction=0.005) for _ in range(3)]


SMALL_PROFILES = {
    "one-class": FrequencyProfile({40: 1}),
    "one-row": FrequencyProfile({1: 1}),
    "singletons": FrequencyProfile({1: 50}),
    # Inserted out of frequency order: the shares follow the sorted order.
    "unsorted": FrequencyProfile({4: 1, 1: 3, 9: 2, 2: 1}),
}


def _profiles(stability_samples):
    return [*SMALL_PROFILES.values(), *stability_samples]


def _items(profile: FrequencyProfile) -> list[tuple[int, int]]:
    return list(profile.counts.items())


def _hex(summary: BootstrapSummary) -> tuple:
    return (
        summary.estimate.hex(),
        summary.interval.lower.hex(),
        summary.interval.upper.hex(),
        summary.std.hex(),
        summary.replicates,
        summary.confidence.hex(),
    )


class _Recording:
    """An estimator that records every profile it is asked about."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.seen: list[list[tuple[int, int]]] = []

    def estimate(self, profile, population_size):
        self.seen.append(_items(profile))
        return self.inner.estimate(profile, population_size)


def test_stability_samples_have_about_35_classes(stability_samples):
    assert all(25 <= p.distinct <= 45 for p in stability_samples)


# ----------------------------------------------------------------------
# The replicates
# ----------------------------------------------------------------------
def test_bootstrap_profile_matches_the_old_code(stability_samples):
    for index, profile in enumerate(_profiles(stability_samples)):
        new_rng = np.random.default_rng(index)
        old_rng = np.random.default_rng(index)
        for _ in range(30):
            assert _items(bootstrap_profile(profile, new_rng)) == _items(
                _old_bootstrap_profile(profile, old_rng)
            )
        assert new_rng.bit_generator.state == old_rng.bit_generator.state


@pytest.mark.parametrize("replicates", [20, 120])
def test_bootstrap_estimate_matches_the_old_code(stability_samples, replicates):
    n = 1_000_000
    for index, profile in enumerate(_profiles(stability_samples)):
        for estimator in make_estimators(STABILITY_SUITE):
            new_rng = np.random.default_rng([index, replicates])
            old_rng = np.random.default_rng([index, replicates])
            new = _Recording(estimator)
            old = _Recording(estimator)
            summary = bootstrap_estimate(new, profile, n, new_rng, replicates=replicates)
            expected = _old_bootstrap_estimate(old, profile, n, old_rng, replicates)
            assert new.seen == old.seen
            assert len(new.seen) == replicates + 1
            assert _hex(summary) == _hex(expected)
            assert new_rng.bit_generator.state == old_rng.bit_generator.state


def test_stability_stream_matches_the_old_code(stability_samples):
    # The exhibit interleaves one bootstrap_estimate with 20
    # bootstrap_profile calls per sample, on one generator.
    new_rng = np.random.default_rng(7)
    old_rng = np.random.default_rng(7)
    (hybvar,) = make_estimators(["HYBVAR"])
    for profile in stability_samples:
        summary = bootstrap_estimate(hybvar, profile, 1_000_000, new_rng, replicates=120)
        expected = _old_bootstrap_estimate(hybvar, profile, 1_000_000, old_rng, 120)
        assert _hex(summary) == _hex(expected)
        for _ in range(20):
            assert _items(bootstrap_profile(profile, new_rng)) == _items(
                _old_bootstrap_profile(profile, old_rng)
            )
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


def test_one_multinomial_call_equals_successive_draws():
    # The batched draw relies on numpy consuming the stream for
    # ``multinomial(r, p, size=R)`` exactly as for R single draws.
    meta = np.random.default_rng(2000)
    for _ in range(200):
        d = int(meta.integers(1, 60))
        r = int(meta.integers(d, 5000))
        replicates = int(meta.integers(1, 150))
        counts = meta.multinomial(r - d, np.full(d, 1.0 / d)) + 1
        shares = counts.astype(np.float64) / r
        seed = int(meta.integers(2**32))
        batched_rng = np.random.default_rng(seed)
        serial_rng = np.random.default_rng(seed)
        batched = batched_rng.multinomial(r, shares, size=replicates)
        serial = [serial_rng.multinomial(r, shares) for _ in range(replicates)]
        np.testing.assert_array_equal(batched, np.array(serial))
        assert batched_rng.bit_generator.state == serial_rng.bit_generator.state


# ----------------------------------------------------------------------
# from_multiplicities
# ----------------------------------------------------------------------
MULTIPLICITY_INPUTS = {
    "ints": [3, 1, 1, 7, 3, 2, 1],
    "numpy-ints": list(np.array([5, 2, 2, 9, 1, 5], dtype=np.int64)),
    "numpy-int32": list(np.array([4, 4, 1, 2], dtype=np.int32)),
    "bools": [True, True, 2, True],
    "mixed": [2, np.int64(2), True, 1, np.int32(3), 3],
    "empty": [],
}


@pytest.mark.parametrize("values", MULTIPLICITY_INPUTS.values(), ids=MULTIPLICITY_INPUTS)
def test_from_multiplicities_matches_the_old_loop(values):
    new = FrequencyProfile.from_multiplicities(values)
    old = _old_from_multiplicities(values)
    assert _items(new) == _items(old)
    assert all(type(i) is int and type(c) is int for i, c in new.counts.items())


@pytest.mark.parametrize(
    "values",
    [
        [1, 0],
        [2, -1, 0],
        [3, 3, np.int64(0), -2],
        [False, 1],
        [1, 2, np.int64(-4), 0, np.int64(-4)],
    ],
)
def test_from_multiplicities_reports_the_old_first_offender(values):
    with pytest.raises(InvalidSampleError) as new:
        FrequencyProfile.from_multiplicities(values)
    with pytest.raises(InvalidSampleError) as old:
        _old_from_multiplicities(values)
    assert str(new.value) == str(old.value)
