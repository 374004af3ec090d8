"""Brent's bracketing root finder, ported from scipy's ``brentq.c``.

AE solves its fixed-point equation for ``m`` (paper §5.3) and the
method-of-moments baseline solves its first-moment equation for ``D``
with Brent's method.  :func:`brentq` is a statement-for-statement port
of the C routine behind scipy's ``brentq``: the same step order,
the same tolerance test, the same interpolate / extrapolate / bisect
choice, so every iterate — and therefore every estimate — is the same
double as scipy's.  ``tests/core/test_roots.py`` pins that bit for bit.

The C code divides freely and relies on IEEE semantics: a zero
denominator yields ``inf`` or ``NaN``, and the step-acceptance
comparison is false for both, so the step falls to bisection.  Python
raises on a float division by zero instead, so each denominator is
checked explicitly and a zero one takes the bisection branch directly —
the same decision the C comparison makes.

Failures raise :class:`~repro.errors.SolverError`: a NaN residual (the
``_wrap_nan_raise`` check of scipy's wrapper), bracket ends whose
residuals share a sign, and an exhausted iteration budget.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import SolverError

__all__ = ["brentq"]


def _signbit(value: float) -> bool:
    """C's ``signbit``: True for negative values, ``-0.0`` included."""
    return math.copysign(1.0, value) < 0


def _evaluate(f: Callable[[float], float], x: float) -> float:
    fx = f(x)
    if math.isnan(fx):
        raise SolverError(f"residual at x={x!r} is NaN; Brent cannot continue")
    return fx


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    xtol: float,
    rtol: float,
    maxiter: int = 100,
) -> float:
    """A root of ``f`` in the bracket ``[a, b]`` by Brent's method.

    ``f(a)`` and ``f(b)`` must differ in sign (or one of them be zero,
    in which case that end is returned).  The returned ``x`` is within
    ``xtol + rtol * |x|`` of a sign change of ``f``.  ``maxiter``
    defaults to scipy's iteration budget.

    Raises
    ------
    SolverError
        If ``f`` returns NaN, ``f(a)`` and ``f(b)`` share a sign, or no
        root is pinned down within ``maxiter`` iterations.
    """
    xpre = float(a)
    xcur = float(b)
    xblk = 0.0
    fblk = 0.0
    spre = 0.0
    scur = 0.0

    fpre = _evaluate(f, xpre)
    fcur = _evaluate(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise SolverError(
            f"residuals at the bracket ends [{xpre!r}, {xcur!r}] share a sign"
        )
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        # The tolerance is 2 * delta.
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        step: float | None = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            stry = _interpolation_step(xpre, xcur, xblk, fpre, fcur, fblk)
            # C's MIN(a, b) is ``a < b ? a : b``.
            limit = abs(spre)
            if not limit < 3 * abs(sbis) - delta:
                limit = 3 * abs(sbis) - delta
            if stry is not None and 2 * abs(stry) < limit:
                step = stry
        if step is None:
            # Bisect.
            spre = sbis
            scur = sbis
        else:
            # Good short step.
            spre = scur
            scur = step

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _evaluate(f, xcur)
    raise SolverError(
        f"Brent failed to converge after {maxiter} iterations, value is {xcur!r}"
    )


def _interpolation_step(
    xpre: float, xcur: float, xblk: float, fpre: float, fcur: float, fblk: float
) -> float | None:
    """The secant or inverse-quadratic step; None where C divides by zero."""
    if xpre == xblk:
        # Interpolate.
        slope_gap = fcur - fpre
        if slope_gap == 0:
            return None
        return -fcur * (xcur - xpre) / slope_gap
    # Extrapolate.
    step_pre = xpre - xcur
    step_blk = xblk - xcur
    if step_pre == 0 or step_blk == 0:
        return None
    dpre = (fpre - fcur) / step_pre
    dblk = (fblk - fcur) / step_blk
    curvature = dblk * dpre * (fblk - fpre)
    if curvature == 0:
        return None
    return -fcur * (fblk * dblk - fpre * dpre) / curvature
