"""Property-based fuzzing of the micro-SQL front end."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db import Catalog, Table
from repro.db.sql import execute_sql
from repro.errors import InvalidParameterError, ReproError


def _catalog(seed: int = 0) -> Catalog:
    rng = np.random.default_rng(seed)
    table = Table(
        name="t",
        columns={
            "a": rng.integers(0, 50, size=3000),
            "b": rng.integers(-10, 10, size=3000),
        },
    )
    registry = Catalog()
    registry.register(table)
    return registry


CATALOG = _catalog()

estimators = st.sampled_from(["GEE", "AE", "DUJ2A", "HYBGEE", "SJ", "Chao84"])
ops = st.sampled_from(["<", "<=", ">", ">=", "=", "==", "!="])


def _truth(column: str) -> int:
    return len(np.unique(CATALOG.table("t").column(column)))


class TestGeneratedStatements:
    @settings(deadline=None, max_examples=40)
    @given(
        column=st.sampled_from(["a", "b"]),
        percent=st.integers(min_value=1, max_value=100),
        estimator=estimators,
        seed=st.integers(0, 2**31),
    )
    # Samples that miss a value and hold no singleton: GEE's interval is
    # [49, 49] against a truth of 50, so only the LOWER half holds.
    @example(column="a", percent=10, estimator="GEE", seed=362881)
    @example(column="a", percent=9, estimator="GEE", seed=3370273)
    def test_sampled_statements_always_sane(self, column, percent, estimator, seed):
        """Sanity bounds, and the half of the interval that always holds.

        ``LOWER = d <= D`` holds on every sample (paper §4); ``D <= UPPER``
        only with high probability, so it is measured as a coverage rate
        in :meth:`test_gee_upper_bound_coverage` instead.
        """
        rng = np.random.default_rng(seed)
        statement = (
            f"SELECT COUNT(DISTINCT {column}) FROM t "
            f"SAMPLE {percent}% USING {estimator}"
        )
        result = execute_sql(CATALOG, statement, rng)
        assert 1 <= result.value <= 3000
        if result.interval is not None:
            assert result.interval.lower <= result.value <= result.interval.upper
            assert result.interval.lower <= _truth(column)

    @pytest.mark.parametrize("column", ["a", "b"])
    def test_gee_upper_bound_coverage(self, column):
        """``D <= UPPER`` on at least 99% of seeded GEE statements per column.

        The paper promises ``D <= UPPER`` only with high probability
        (§4): a sample that misses a value and holds no singleton gets
        ``UPPER = d < D``.  Every percent from 1 to 100 at seeds 0-19
        gives 2,000 statements per column; 99.85% cover the truth for
        ``a`` and 99.90% for ``b``.  The 99% level leaves room for
        sampling changes to move a few statements without hiding a
        broken bound, which would miss far more often.
        """
        truth = _truth(column)
        covered = total = 0
        for percent in range(1, 101):
            for seed in range(20):
                statement = (
                    f"SELECT COUNT(DISTINCT {column}) FROM t "
                    f"SAMPLE {percent}% USING GEE"
                )
                result = execute_sql(
                    CATALOG, statement, np.random.default_rng(seed)
                )
                assert result.interval.lower <= truth
                covered += truth <= result.interval.upper
                total += 1
        assert covered >= 0.99 * total, f"{covered}/{total} statements covered"

    @settings(deadline=None, max_examples=40)
    @given(
        column=st.sampled_from(["a", "b"]),
        wcol=st.sampled_from(["a", "b"]),
        op=ops,
        value=st.integers(min_value=-15, max_value=60),
    )
    def test_exact_filtered_statements_match_numpy(self, column, wcol, op, value):
        statement = (
            f"SELECT COUNT(DISTINCT {column}) FROM t WHERE {wcol} {op} {value}"
        )
        data = CATALOG.table("t")
        mask_ops = {
            "<": np.less, "<=": np.less_equal, ">": np.greater,
            ">=": np.greater_equal, "=": np.equal, "==": np.equal,
            "!=": np.not_equal,
        }
        mask = mask_ops[op](data.column(wcol), value)
        expected = len(np.unique(data.column(column)[mask]))
        result = execute_sql(CATALOG, statement)
        assert result.value == expected

    @settings(deadline=None, max_examples=30)
    @given(garbage=st.text(min_size=1, max_size=60))
    def test_garbage_never_crashes_uncontrolled(self, garbage):
        try:
            execute_sql(CATALOG, garbage, np.random.default_rng(0))
        except ReproError:
            pass  # the designed failure mode (includes KeyError-based CatalogError)
        except KeyError:
            pytest.fail("raw KeyError escaped the SQL layer")
