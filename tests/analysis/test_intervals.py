"""Unit tests for the interval lattice (`repro.analysis.dataflow.intervals`).

The lattice is the foundation the prover stands on: joins must
over-approximate, meets must intersect, widening must terminate loops
without losing the sign facts the numeric rules need, and the transfer
functions must be sound on the extended reals.
"""

from __future__ import annotations

import math

from repro.analysis.dataflow import Interval
from repro.analysis.dataflow.intervals import TOP


class TestConstructorsAndQueries:
    def test_top_is_everything(self):
        assert TOP.is_top
        assert TOP.contains(0.0)
        assert TOP.contains(-math.inf)
        assert not TOP.is_positive
        assert not TOP.is_nonzero

    def test_const(self):
        five = Interval.const(5)
        assert five.lo == five.hi == 5.0
        assert five.is_positive and five.is_nonzero
        zero = Interval.const(0)
        assert not zero.is_nonzero
        assert zero.is_nonnegative

    def test_positive_vs_nonnegative_differ_at_zero(self):
        assert Interval.positive().is_positive
        assert not Interval.nonnegative().is_positive
        assert Interval.nonnegative().is_nonnegative
        assert not Interval.positive().contains(0.0)
        assert Interval.nonnegative().contains(0.0)

    def test_nonzero_normalization(self):
        # An interval strictly on one side of zero is nonzero implicitly.
        assert Interval(1.0, 2.0).is_nonzero
        assert Interval(-3.0, -1.0).is_nonzero
        assert not Interval(-1.0, 1.0).is_nonzero

    def test_empty_proves_every_query(self):
        empty = Interval.empty()
        assert empty.is_positive and empty.is_negative
        assert empty.is_nonzero and empty.is_nonnegative
        assert not empty.is_top
        assert not empty.contains(0.0) and not empty.contains(1.0)


class TestLattice:
    def test_join_is_union(self):
        a = Interval(1.0, 2.0)
        b = Interval(4.0, 8.0)
        joined = a.join(b)
        assert (joined.lo, joined.hi) == (1.0, 8.0)
        assert joined.is_nonzero  # both operands were

    def test_join_drops_nonzero_when_either_may_be_zero(self):
        assert not Interval(1.0, 2.0).join(Interval(0.0, 1.0)).is_nonzero

    def test_meet_is_intersection(self):
        met = Interval(0.0, 10.0).meet(Interval(5.0, 20.0))
        assert met is not None
        assert (met.lo, met.hi) == (5.0, 10.0)

    def test_meet_empty_returns_none(self):
        assert Interval(0.0, 1.0).meet(Interval(2.0, 3.0)) is None
        # [0, 0] with a nonzero tag is the empty set too.
        assert Interval.const(0).meet(Interval(-1.0, 1.0, nonzero=True)) is None

    def test_widen_preserves_sign_for_counting_loops(self):
        # i = 1; while ...: i += 1  — only the growing bound goes to
        # infinity, so the widened interval keeps i >= 1.
        i = Interval.const(1)
        widened = i.widen(i.add(Interval.const(1)))
        assert widened.lo >= 1.0
        assert widened.is_positive


class TestTransferFunctions:
    def test_arithmetic(self):
        a = Interval(1.0, 2.0)
        b = Interval(3.0, 5.0)
        assert (a.add(b).lo, a.add(b).hi) == (4.0, 7.0)
        assert (b.sub(a).lo, b.sub(a).hi) == (1.0, 4.0)
        assert (a.mul(b).lo, a.mul(b).hi) == (3.0, 10.0)
        assert (a.neg().lo, a.neg().hi) == (-2.0, -1.0)

    def test_division_by_possibly_zero_is_top(self):
        assert Interval.const(1).div(Interval.nonnegative()).is_top

    def test_division_positive_by_positive_is_positive(self):
        quotient = Interval.positive().div(Interval.positive())
        assert quotient.is_positive

    def test_abs_and_sqrt(self):
        mixed = Interval(-3.0, 2.0)
        assert (mixed.abs().lo, mixed.abs().hi) == (0.0, 3.0)
        assert Interval(4.0, 9.0).sqrt().lo == 2.0
        assert Interval(4.0, 9.0).sqrt().hi == 3.0
        # sqrt of a maybe-negative interval degrades to [0, inf].
        assert Interval(-1.0, 4.0).sqrt().is_nonnegative

    def test_pow_even_exponent_is_nonnegative(self):
        squared = Interval(-3.0, 2.0).pow(Interval.const(2))
        assert squared.lo == 0.0
        assert squared.hi == 9.0

    def test_log_needs_positive(self):
        assert Interval.nonnegative().log().is_top
        assert Interval(1.0, math.e).log().lo == 0.0

    def test_exp_is_positive(self):
        assert TOP.exp().is_positive

    def test_exp_handles_infinite_endpoints(self):
        full = Interval(-math.inf, math.inf).exp()
        assert (full.lo, full.hi) == (0.0, math.inf)
        vanishing = Interval(-math.inf, 0.0).exp()
        assert (vanishing.lo, vanishing.hi) == (0.0, 1.0)

    def test_exp_saturates_past_the_double_range(self):
        # math.exp raises OverflowError above ~709.78 where IEEE doubles
        # quietly give inf; the transfer must saturate, not raise.
        huge = Interval(710.0, 1000.0).exp()
        assert huge.lo == math.inf
        assert huge.hi == math.inf

    def test_to_int_keeps_infinite_endpoints(self):
        cast = Interval(1.5, math.inf).to_int()
        assert (cast.lo, cast.hi) == (1.0, math.inf)
        assert cast.is_nonzero


class TestBranchRefinement:
    def test_assume_gt_zero_sets_nonzero(self):
        refined = TOP.assume_gt(Interval.const(0))
        assert refined is not None
        assert refined.is_positive

    def test_assume_ge_one(self):
        refined = TOP.assume_ge(Interval.const(1))
        assert refined is not None
        assert refined.lo == 1.0
        assert refined.is_positive

    def test_assume_lt_zero_is_negative(self):
        refined = TOP.assume_lt(Interval.const(0))
        assert refined is not None
        assert refined.is_negative

    def test_assume_eq_narrows_to_constant(self):
        refined = TOP.assume_eq(Interval.const(3))
        assert refined is not None
        assert refined.lo == refined.hi == 3.0

    def test_assume_ne_zero(self):
        refined = TOP.assume_ne(Interval.const(0))
        assert refined is not None
        assert refined.is_nonzero
        # != against anything else carries no interval information.
        assert TOP.assume_ne(Interval.const(5)) == TOP

    def test_contradictory_assumption_is_none(self):
        # x in [1, 2] assumed < 1: empty (strict bound at the endpoint
        # is kept only via the nonzero bit at 0, so use 0 here).
        assert Interval(0.0, 0.0).assume_gt(Interval.const(0)) is None
