"""The in-repo Brent solver against scipy's brentq, bit for bit."""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np
import pytest
from scipy import optimize

import repro.core.ae as ae_module
import repro.estimators.jackknife as jackknife_module
from repro.core import AE
from repro.core.roots import brentq
from repro.data import zipf_column
from repro.errors import SolverError
from repro.estimators import MethodOfMoments
from repro.frequency import FrequencyProfile
from repro.sampling import UniformWithoutReplacement

#: scipy's default (and tightest) tolerances, and the ones AE and
#: MethodOfMoments solve with.
TOLERANCES = [(2e-12, 4 * sys.float_info.epsilon), (1e-9, 1e-12)]


def _outcome(solver: Callable[..., float], f, a, b, xtol, rtol) -> str:
    """The root as ``float.hex()``, or ``"error"`` when the solver gives up."""
    try:
        return solver(f, a, b, xtol=xtol, rtol=rtol).hex()
    except (ValueError, RuntimeError, SolverError):
        return "error"


def _random_problem(rng: np.random.Generator, kind: int):
    """``(residual, lo, hi)`` of one seeded family; the ends may not bracket."""
    root = float(rng.uniform(-50.0, 50.0))
    scale = float(rng.lognormal(0.0, 2.0))
    lo = root - float(rng.exponential(20.0))
    hi = root + float(rng.exponential(20.0))
    if kind == 0:
        return (lambda x: scale * (x - root)), lo, hi
    if kind == 1:
        return (lambda x: scale * (x - root) ** 3 + (x - root)), lo, hi
    if kind == 2:
        return (lambda x: math.tanh(scale * (x - root))), lo, hi
    if kind == 3:
        # A -inf wall left of the root, like AE's domain guards.
        def walled(x: float) -> float:
            if x < root - scale:
                return -math.inf
            return scale * (x - root) + math.exp(min(0.0, x - root)) - 1.0

        return walled, lo, hi
    # AE's own fixed-point residual, with random tail sums, bracketed
    # the way AE brackets it: from m = rare_distinct, doubling.
    f1 = int(rng.integers(1, 200))
    rare_distinct = f1 + int(rng.integers(0, 100))
    rare_rows = rare_distinct + (rare_distinct - f1)
    a0 = float(rng.exponential(5.0)) * int(rng.integers(0, 2))
    b0 = float(rng.exponential(20.0)) * int(rng.integers(0, 2))

    def fixed_point(m: float) -> float:
        return ae_module._fixed_point_residual_approx(
            m, f1, rare_distinct, rare_rows, a0, b0
        )

    lo = float(rare_distinct)
    return fixed_point, lo, lo * float(2.0 ** rng.integers(1, 20))


class TestBitIdentity:
    @pytest.mark.parametrize("kind", range(5))
    def test_random_brackets_match_scipy(self, kind):
        rng = np.random.default_rng(1000 + kind)
        solved = 0
        for trial in range(400):
            f, lo, hi = _random_problem(rng, kind)
            if trial % 5 == 0:
                lo, hi = hi, lo
            for xtol, rtol in TOLERANCES:
                want = _outcome(optimize.brentq, f, lo, hi, xtol, rtol)
                assert _outcome(brentq, f, lo, hi, xtol, rtol) == want
                solved += want != "error"
        assert solved > 200

    def test_minus_inf_residual_at_the_left_end(self):
        def residual(x: float) -> float:
            return -math.inf if x < 1.0 else x * x - 2.0

        for xtol, rtol in TOLERANCES:
            want = optimize.brentq(residual, 0.0, 4.0, xtol=xtol, rtol=rtol)
            got = brentq(residual, 0.0, 4.0, xtol=xtol, rtol=rtol)
            assert got.hex() == want.hex()

    @pytest.mark.parametrize("end", ["a", "b"])
    def test_root_exactly_at_an_endpoint(self, end):
        a, b = 0.1, 7.3
        root = a if end == "a" else b

        def residual(x: float) -> float:
            return x - root

        got = brentq(residual, a, b, xtol=1e-9, rtol=1e-12)
        assert got.hex() == optimize.brentq(residual, a, b, xtol=1e-9, rtol=1e-12).hex()
        assert got == root

    def test_real_solver_calls_match_scipy(self, monkeypatch):
        # Record every bracket AE and MethodOfMoments hand the solver on
        # sampled Zipf columns, then replay each one through scipy.
        calls = []

        def recording(f, a, b, **kwargs):
            calls.append((f, a, b, kwargs))
            return brentq(f, a, b, **kwargs)

        monkeypatch.setattr(ae_module, "brentq", recording)
        monkeypatch.setattr(jackknife_module, "brentq", recording)
        rng = np.random.default_rng(7)
        n = 20_000
        estimators = [AE(), AE(method="exact"), MethodOfMoments()]
        for z in (0.0, 0.5, 1.0, 2.0):
            column = zipf_column(n, z=z, rng=rng)
            for fraction in (0.002, 0.01, 0.05, 0.2):
                profile = UniformWithoutReplacement().profile(
                    column.values, rng, fraction=fraction
                )
                for estimator in estimators:
                    estimator.estimate(profile, n)
        assert len(calls) >= 30
        for f, a, b, kwargs in calls:
            assert brentq(f, a, b, **kwargs).hex() == optimize.brentq(f, a, b, **kwargs).hex()


class TestFailures:
    """Each failure is a SolverError, never scipy's ValueError/RuntimeError."""

    def test_nan_residual_raises_solver_error(self):
        with pytest.raises(SolverError, match="NaN"):
            brentq(lambda x: math.nan, 0.0, 1.0, xtol=1e-9, rtol=1e-12)

    def test_nan_midway_raises_solver_error(self):
        with pytest.raises(SolverError, match="NaN"):
            brentq(
                lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5,
                0.0,
                1.0,
                xtol=1e-9,
                rtol=1e-12,
            )

    def test_same_sign_bracket_raises_solver_error(self):
        with pytest.raises(SolverError, match="share a sign"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-9, rtol=1e-12)

    def test_exhausted_iterations_raise_solver_error(self):
        with pytest.raises(SolverError, match="converge"):
            brentq(lambda x: x**3 - 2.0, 0.0, 1e6, xtol=1e-9, rtol=1e-12, maxiter=3)

    def test_method_of_moments_raises_solver_error(self, monkeypatch):
        # A residual gone NaN inside MethodOfMoments surfaces as the
        # library's SolverError.
        monkeypatch.setattr(jackknife_module.math, "expm1", lambda x: math.nan)
        with pytest.raises(SolverError):
            MethodOfMoments().estimate(FrequencyProfile({1: 5, 2: 5}), 1000)
