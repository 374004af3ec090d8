"""Figures 15-16: mean error and variance over all 20 MSSales columns.

Paper findings: all estimators perform reasonably well on this dataset;
variances are small apart from occasional spikes, and decrease with the
sampling fraction.  (MSSales is the synthesized surrogate of the
Microsoft-internal table; see DESIGN.md §3.)  Both figures read one
sweep: Figure 16 reuses the evaluation Figure 15 ran.
"""

from __future__ import annotations


def test_fig15_mssales_error(exhibit):
    table = exhibit("fig15")
    # "All estimators perform reasonably well": by the top rate nobody
    # is beyond 2x on average.
    for name, values in table.series.items():
        assert values[-1] < 2.0, name
    # Errors fall with the sampling rate for the paper's estimators.
    for name in ("GEE", "AE", "HYBGEE"):
        assert table.series[name][-1] <= table.series[name][0], name


def test_fig16_mssales_variance(exhibit):
    table = exhibit("fig16")
    for name, values in table.series.items():
        assert values[-1] <= values[0] + 0.05, name
