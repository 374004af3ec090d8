"""Figures 13-14: mean error and variance over all 11 CoverType columns.

Paper findings: the new estimators yield more accurate estimates than
HYBSKEW; HYBGEE performs better than both GEE and HYBSKEW; variances
are small and decrease with the sampling fraction.  Both figures read
one sweep: Figure 14 reuses the evaluation Figure 13 ran.
"""

from __future__ import annotations


def test_fig13_covertype_error(exhibit):
    table = exhibit("fig13")
    for name in ("GEE", "AE", "HYBGEE"):
        assert sum(table.series[name]) <= sum(table.series["HYBSKEW"]), name
    # "HYBGEE performs better than both GEE and HYBSKEW."
    assert sum(table.series["HYBGEE"]) <= sum(table.series["GEE"])


def test_fig14_covertype_variance(exhibit):
    table = exhibit("fig14")
    for name, values in table.series.items():
        assert values[-1] <= values[0] + 0.05, name
