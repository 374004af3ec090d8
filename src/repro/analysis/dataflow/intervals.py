"""The interval lattice: closed real intervals plus a ``nonzero`` bit.

Every abstract value is an :class:`Interval` ``[lo, hi]`` over the
extended reals, optionally tagged ``nonzero``.  The tag is what makes
the domain precise *at zero* without tracking open bounds everywhere:
all the questions the numeric rules ask (is a divisor nonzero? is a
``log`` argument positive? a ``sqrt`` argument nonnegative?) only care
about strictness at the origin, so ``x > 0`` is ``[0, inf]`` +
``nonzero`` and ``x >= 0`` is ``[0, inf]`` alone.

Arithmetic is interpreted over the reals: ``positive / positive`` is
positive even though floats can underflow to ``0.0``.  This is recorded
as a soundness caveat in ``docs/static_analysis.md``.

Widening sends an unstable bound straight to infinity.  The empty
interval (:meth:`Interval.empty`) answers for a place no feasible path
reaches, and proves every query.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

__all__ = ["Interval", "TOP"]

_INF = math.inf


@dataclass(frozen=True)
class Interval:
    """``[lo, hi]`` over the extended reals, with a provably-``nonzero`` bit."""

    lo: float = -_INF
    hi: float = _INF
    nonzero: bool = False

    def __post_init__(self) -> None:
        # Normalize: an interval strictly on one side of zero is nonzero.
        if not self.nonzero and (self.lo > 0.0 or self.hi < 0.0):
            object.__setattr__(self, "nonzero", True)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def const(value: float) -> "Interval":
        value = float(value)
        return Interval(value, value, value != 0)

    @staticmethod
    def at_least(lo: float, nonzero: bool = False) -> "Interval":
        return Interval(float(lo), _INF, nonzero)

    @staticmethod
    def at_most(hi: float, nonzero: bool = False) -> "Interval":
        return Interval(-_INF, float(hi), nonzero)

    @staticmethod
    def positive() -> "Interval":
        return Interval(0.0, _INF, True)

    @staticmethod
    def nonnegative() -> "Interval":
        return Interval(0.0, _INF, False)

    @staticmethod
    def empty() -> "Interval":
        """No value at all: ``[inf, -inf]``, provably positive, negative
        and nonzero at once."""
        return Interval(_INF, -_INF, True)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def is_top(self) -> bool:
        return self.lo == -_INF and self.hi == _INF and not self.nonzero

    @property
    def is_positive(self) -> bool:
        """Provably ``> 0``."""
        return self.lo > 0.0 or (self.lo >= 0.0 and self.nonzero)

    @property
    def is_nonnegative(self) -> bool:
        """Provably ``>= 0``."""
        return self.lo >= 0.0

    @property
    def is_negative(self) -> bool:
        return self.hi < 0.0 or (self.hi <= 0.0 and self.nonzero)

    @property
    def is_nonzero(self) -> bool:
        """Provably ``!= 0``."""
        return self.nonzero or self.lo > 0.0 or self.hi < 0.0

    def contains(self, value: float) -> bool:
        """True when ``value`` may be a member of this interval."""
        if value == 0 and self.nonzero:
            return False
        return self.lo <= value <= self.hi

    # ------------------------------------------------------------------
    # Lattice operations
    # ------------------------------------------------------------------
    def join(self, other: "Interval") -> "Interval":
        """Least upper bound (set union, over-approximated)."""
        return Interval(
            min(self.lo, other.lo),
            max(self.hi, other.hi),
            self.nonzero and other.nonzero,
        )

    def meet(self, other: "Interval") -> "Interval | None":
        """Greatest lower bound (intersection); ``None`` when empty."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        nonzero = self.nonzero or other.nonzero
        if nonzero and lo == 0 and hi == 0:
            return None
        return Interval(lo, hi, nonzero)

    def widen(self, newer: "Interval") -> "Interval":
        """Unstable bounds jump straight to infinity."""
        lo = self.lo if newer.lo >= self.lo else -_INF
        hi = self.hi if newer.hi <= self.hi else _INF
        return Interval(lo, hi, self.nonzero and newer.nonzero)

    # ------------------------------------------------------------------
    # Arithmetic transfer functions
    # ------------------------------------------------------------------
    def add(self, other: "Interval") -> "Interval":
        """``self + other``."""
        return Interval(_ext_add(self.lo, other.lo), _ext_add(self.hi, other.hi))

    def sub(self, other: "Interval") -> "Interval":
        """``self - other``."""
        return Interval(_ext_add(self.lo, -other.hi), _ext_add(self.hi, -other.lo))

    def neg(self) -> "Interval":
        """``-self``."""
        return Interval(-self.hi, -self.lo, self.nonzero)

    def mul(self, other: "Interval") -> "Interval":
        """``self * other`` (extreme-product rule)."""
        products = [
            _ext_mul(a, b)
            for a in (self.lo, self.hi)
            for b in (other.lo, other.hi)
        ]
        return Interval(
            min(products), max(products), self.is_nonzero and other.is_nonzero
        )

    def div(self, other: "Interval") -> "Interval":
        """True division.  Divisors that may be zero yield TOP."""
        if not other.is_nonzero:
            return TOP
        if other.is_positive:
            if self.is_nonnegative:
                # lo/hi-extreme quotients of nonnegative by positive.
                lo = _ext_div(self.lo, other.hi)
                hi = _ext_div(self.hi, other.lo)
                return Interval(lo, hi, self.is_nonzero)
            quotients = [
                _ext_div(a, b)
                for a in (self.lo, self.hi)
                for b in (other.lo, other.hi)
                if b != 0
            ]
            return Interval(min(quotients), max(quotients), self.is_nonzero)
        if other.is_negative:
            return self.neg().div(other.neg())
        # Nonzero divisor of unknown sign: magnitude unbounded either way.
        return Interval(-_INF, _INF, False)

    def pow(self, exponent: "Interval") -> "Interval":
        """``self ** exponent``; precise for constant exponents and for
        nonnegative bases with nonnegative exponents (monotone regime)."""
        if exponent.lo == exponent.hi and float(exponent.lo).is_integer():
            k = int(exponent.lo)
            return self._pow_const_int(k)
        if exponent.lo == exponent.hi and exponent.lo > 0.0 and self.is_nonnegative:
            # Constant fractional exponent (e.g. ``x ** 0.5``): monotone
            # on the nonnegative reals.
            e = exponent.lo
            return Interval(_ext_pow(self.lo, e), _ext_pow(self.hi, e), self.is_nonzero)
        if self.lo >= 1.0 and exponent.is_nonnegative:
            # base >= 1 with a nonnegative exponent: monotone in both,
            # so the extremes are attained at the corner points.
            return Interval(
                _ext_pow(self.lo, exponent.lo), _ext_pow(self.hi, exponent.hi), True
            )
        if self.is_positive:
            return Interval.positive()
        if self.is_nonnegative:
            return Interval.nonnegative()
        return TOP

    def _pow_const_int(self, k: int) -> "Interval":
        if k == 0:
            return Interval.const(1.0)
        if k > 0 and k % 2 == 0:
            magnitudes = [abs(self.lo), abs(self.hi)]
            hi = _ext_pow(max(magnitudes), k)
            if self.lo >= 0.0:
                lo = _ext_pow(self.lo, k)
            elif self.hi <= 0.0:
                lo = _ext_pow(abs(self.hi), k)
            else:
                lo = 0.0
            return Interval(lo, hi, self.is_nonzero)
        if k > 0:  # odd positive exponent: monotone
            return Interval(
                _ext_pow(self.lo, k), _ext_pow(self.hi, k), self.is_nonzero
            )
        # Negative exponent: 1 / self**(-k).
        return Interval.const(1.0).div(self._pow_const_int(-k))

    def lshift(self, other: "Interval") -> "Interval":
        """``self << other`` for nonnegative integer operands."""
        if not (self.is_nonnegative and other.is_nonnegative):
            return TOP
        lo = _ext_mul(self.lo, _ext_pow(2.0, other.lo))
        hi = _ext_mul(self.hi, _ext_pow(2.0, other.hi))
        return Interval(lo, hi, self.is_nonzero)

    # ------------------------------------------------------------------
    # Function transfer helpers (math builtins)
    # ------------------------------------------------------------------
    def abs(self) -> "Interval":
        """``abs(self)``."""
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return self.neg()
        return Interval(0.0, max(abs(self.lo), self.hi), self.nonzero)

    def sqrt(self) -> "Interval":
        """``sqrt(self)``; non-provably-nonnegative inputs widen to ``[0, inf]``."""
        if not self.is_nonnegative:
            return Interval.nonnegative()
        lo = math.sqrt(self.lo) if self.lo != _INF else _INF
        hi = math.sqrt(self.hi) if self.hi != _INF else _INF
        return Interval(lo, hi, self.is_nonzero)

    def exp(self) -> "Interval":
        """``exp(self)`` — always positive; finite bounds past ~709
        saturate to ``inf`` (``math.exp`` raises where IEEE would)."""

        def _exp(bound: float) -> float:
            if bound == -_INF:
                return 0.0
            if bound == _INF:
                return _INF
            try:
                return math.exp(bound)
            except OverflowError:
                return _INF

        return Interval(_exp(self.lo), _exp(self.hi), True)

    def log(self, log: Callable[[float], float] = math.log) -> "Interval":
        """``log(self)`` for ``math.log``, ``math.log2`` or ``math.log10``;
        only informative when provably positive.  Each bound is that
        function's own value, which a base-changing ``math.log(x, base)``
        can miss by an ulp: ``math.log(1000, 10) < 3``."""
        if not self.is_positive:
            return TOP
        lo = -_INF if self.lo <= 0.0 else log(self.lo)
        hi = _INF if self.hi == _INF else log(self.hi)
        return Interval(lo, hi)

    def to_int(self) -> "Interval":
        """``int(x)``: truncation toward zero."""
        lo = self.lo if self.lo == -_INF else float(math.floor(self.lo))
        hi = self.hi if self.hi == _INF else float(math.ceil(self.hi))
        return Interval(lo, hi, self.lo >= 1.0 or self.hi <= -1.0)

    def maximum(self, other: "Interval") -> "Interval":
        """Pointwise ``max(self, other)`` (``np.maximum`` / binary ``max``)."""
        lo = max(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        nonzero = lo > 0.0 or hi < 0.0 or self.is_positive or other.is_positive
        return Interval(lo, hi, nonzero)

    def minimum(self, other: "Interval") -> "Interval":
        """Pointwise ``min(self, other)`` (``np.minimum`` / binary ``min``)."""
        lo = min(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        nonzero = (
            lo > 0.0
            or hi < 0.0
            or (self.is_positive and other.is_positive)
            or self.is_negative
            or other.is_negative
        )
        return Interval(lo, hi, nonzero)

    # ------------------------------------------------------------------
    # Comparison refinement
    # ------------------------------------------------------------------
    def assume_lt(self, bound: "Interval") -> "Interval | None":
        """Refine under the assumption ``self < bound``."""
        refined = self.meet(Interval.at_most(bound.hi))
        if refined is not None and bound.hi == 0:
            # Strictness at zero: x < 0 makes x nonzero — unless the
            # remaining set was exactly {0}, which is now empty.
            if refined.lo == 0 and refined.hi == 0:
                return None
            refined = Interval(refined.lo, refined.hi, True)
        return refined

    def assume_le(self, bound: "Interval") -> "Interval | None":
        """Refine under ``self <= bound``."""
        return self.meet(Interval.at_most(bound.hi))

    def assume_gt(self, bound: "Interval") -> "Interval | None":
        """Refine under ``self > bound``."""
        refined = self.meet(Interval.at_least(bound.lo))
        if refined is not None and bound.lo == 0:
            if refined.lo == 0 and refined.hi == 0:
                return None
            refined = Interval(refined.lo, refined.hi, True)
        return refined

    def assume_ge(self, bound: "Interval") -> "Interval | None":
        """Refine under ``self >= bound``."""
        return self.meet(Interval.at_least(bound.lo))

    def assume_eq(self, bound: "Interval") -> "Interval | None":
        """Refine under ``self == bound`` (plain intersection)."""
        return self.meet(bound)

    def assume_ne(self, bound: "Interval") -> "Interval | None":
        """Only ``!= 0`` carries usable information in this domain."""
        if bound.lo == 0 and bound.hi == 0:
            return self.meet(Interval(-_INF, _INF, True))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = ", nonzero" if self.nonzero else ""
        return f"Interval([{self.lo}, {self.hi}]{tag})"


#: The unknown value: any real, possibly zero.
TOP = Interval()


def _ext_add(a: float, b: float) -> float:
    """Extended-real addition; opposing infinities collapse to the
    conservative side of whichever bound is being computed, so map to 0."""
    if math.isinf(a) and math.isinf(b) and (a > 0) != (b > 0):
        return 0.0
    return a + b


def _ext_mul(a: float, b: float) -> float:
    """Extended-real multiplication with the interval convention 0 * inf = 0."""
    if a == 0 or b == 0:
        return 0.0
    return a * b


def _ext_div(a: float, b: float) -> float:
    if b == 0:
        return _INF if a >= 0.0 else -_INF
    if math.isinf(a) and math.isinf(b):
        return 0.0
    if math.isinf(b):
        return 0.0
    return a / b


def _ext_pow(base: float, k: float) -> float:
    if math.isinf(base):
        return _INF if base > 0 or (isinstance(k, int) and k % 2 == 0) else -_INF
    try:
        return float(base) ** k
    except OverflowError:  # pragma: no cover - huge finite bases
        return _INF if base > 0 else -_INF
