"""Unit tests for the taint lattice (`repro.analysis.dataflow.taint`).

A taint is a plain ``frozenset`` of labels, so the lattice laws are the
set laws.  What the module itself adds is tested here: the two label
families partition the labels, the synthetic parameter labels
round-trip through a summary split without leaking into real taint,
and every taint renders one stable way.
"""

from __future__ import annotations

from repro.analysis.dataflow import CLEAN
from repro.analysis.dataflow.taint import (
    ALL_LABELS,
    CLOCK,
    ENV,
    ORDER_LABELS,
    RNG,
    VALUE_LABELS,
    describe,
    param_label,
    split_params,
)


class TestConstruction:
    def test_label_families_partition(self):
        assert VALUE_LABELS | ORDER_LABELS == ALL_LABELS
        assert not VALUE_LABELS & ORDER_LABELS


class TestParamSplit:
    def test_split_separates_families(self):
        taint = frozenset({RNG, param_label("values"), param_label("seed")})
        real, params = split_params(taint)
        assert real == frozenset({RNG})
        assert params == frozenset({"values", "seed"})

    def test_split_of_clean_is_clean(self):
        real, params = split_params(CLEAN)
        assert not real
        assert not params

    def test_describe_is_sorted_and_stable(self):
        assert describe(frozenset({ENV, CLOCK, RNG})) == "clock+env+rng"
        assert describe(CLEAN) == "clean"
