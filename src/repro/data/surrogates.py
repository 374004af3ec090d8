"""Synthetic surrogates for the paper's three real-world datasets.

The paper evaluates on:

* **Census** — the UCI "Adult" extract, 32,561 rows, 15 columns;
* **CoverType** — the UCI forest-cover dataset, 581,012 rows, 11 columns
  (the quantitative attributes plus the cover type);
* **MSSales** — a Microsoft-internal sales table, 1,996,290 rows,
  20 columns (Product, Division, LicenseNumber, Revenue, ...).

None of these can be downloaded in this offline environment, and MSSales
was never public.  Distinct-value estimators, however, see only each
column's *multiset of multiplicities*; reproducing a column's cardinality
and skew profile reproduces estimator behaviour on it (DESIGN.md §3).
The surrogates below therefore synthesize each dataset column-by-column
from its published (Census, CoverType) or schema-plausible (MSSales)
distinct counts, with Zipf-shaped class sizes whose skew reflects the
column kind: identifiers near-uniform, categorical codes moderately
skewed, long-tail monetary amounts highly skewed.

Census/CoverType distinct counts follow the UCI documentation; they are
approximations where the documentation is silent, and are recorded per
column below so they can be audited or corrected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.column import Column
from repro.data.synthetic import column_with_distinct, distinct_class_sizes
from repro.errors import DataGenerationError

__all__ = [
    "Dataset",
    "ColumnSpec",
    "census",
    "covertype",
    "mssales",
    "DATASETS",
    "class_size_dataset",
]


@dataclass(frozen=True)
class ColumnSpec:
    """Declarative description of a surrogate column."""

    name: str
    distinct: int
    skew: float


@dataclass
class Dataset:
    """A named collection of columns (a table, for estimation purposes)."""

    name: str
    columns: list[Column] = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return self.columns[0].n_rows if self.columns else 0

    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def column(self, name: str) -> Column:
        """Look up a column by name."""
        for candidate in self.columns:
            if candidate.name == name:
                return candidate
        raise DataGenerationError(f"dataset {self.name!r} has no column {name!r}")

    def __iter__(self):
        return iter(self.columns)

    def __len__(self) -> int:
        return len(self.columns)


#: UCI Adult ("Census") — 32,561 rows, 15 columns.  Distinct counts from
#: the UCI repository documentation; skews chosen by column kind
#: (demographic categoricals are head-heavy, fnlwgt is near-unique).
CENSUS_ROWS = 32_561
CENSUS_COLUMNS: tuple[ColumnSpec, ...] = (
    ColumnSpec("age", 73, 0.8),
    ColumnSpec("workclass", 9, 1.6),
    ColumnSpec("fnlwgt", 21_648, 0.2),
    ColumnSpec("education", 16, 1.0),
    ColumnSpec("education_num", 16, 1.0),
    ColumnSpec("marital_status", 7, 1.2),
    ColumnSpec("occupation", 15, 0.6),
    ColumnSpec("relationship", 6, 1.0),
    ColumnSpec("race", 5, 2.0),
    ColumnSpec("sex", 2, 0.6),
    ColumnSpec("capital_gain", 119, 2.5),
    ColumnSpec("capital_loss", 92, 2.5),
    ColumnSpec("hours_per_week", 94, 1.8),
    ColumnSpec("native_country", 42, 2.2),
    ColumnSpec("income", 2, 0.8),
)

#: UCI CoverType — 581,012 rows; the ten quantitative attributes plus
#: the class label, as in the paper's 11-column table.
COVERTYPE_ROWS = 581_012
COVERTYPE_COLUMNS: tuple[ColumnSpec, ...] = (
    ColumnSpec("elevation", 1_978, 0.3),
    ColumnSpec("aspect", 361, 0.4),
    ColumnSpec("slope", 67, 0.9),
    ColumnSpec("horizontal_distance_to_hydrology", 551, 0.8),
    ColumnSpec("vertical_distance_to_hydrology", 700, 0.9),
    ColumnSpec("horizontal_distance_to_roadways", 5_785, 0.4),
    ColumnSpec("hillshade_9am", 207, 0.5),
    ColumnSpec("hillshade_noon", 185, 0.5),
    ColumnSpec("hillshade_3pm", 255, 0.5),
    ColumnSpec("horizontal_distance_to_fire_points", 5_827, 0.4),
    ColumnSpec("cover_type", 7, 1.0),
)

#: MSSales — schema-plausible sales fact table, 1,996,290 rows,
#: 20 columns spanning the cardinality spectrum the paper names
#: (Product, Division, LicenseNumber, Revenue, ...).
MSSALES_ROWS = 1_996_290
MSSALES_COLUMNS: tuple[ColumnSpec, ...] = (
    ColumnSpec("product", 5_000, 1.1),
    ColumnSpec("division", 50, 1.3),
    ColumnSpec("license_number", 1_500_000, 0.05),
    ColumnSpec("revenue", 300_000, 0.9),
    ColumnSpec("quantity", 1_000, 2.0),
    ColumnSpec("order_date", 365, 0.3),
    ColumnSpec("ship_date", 370, 0.3),
    ColumnSpec("customer", 200_000, 1.0),
    ColumnSpec("region", 15, 1.0),
    ColumnSpec("country", 80, 1.5),
    ColumnSpec("currency", 30, 1.8),
    ColumnSpec("sales_rep", 2_000, 0.8),
    ColumnSpec("channel", 8, 1.2),
    ColumnSpec("program", 120, 1.4),
    ColumnSpec("sku", 8_000, 1.1),
    ColumnSpec("invoice", 1_800_000, 0.02),
    ColumnSpec("discount_pct", 100, 2.2),
    ColumnSpec("unit_price", 20_000, 1.0),
    ColumnSpec("fiscal_quarter", 4, 0.2),
    ColumnSpec("fiscal_month", 12, 0.2),
)


def _scaled_columns(
    n_rows: int, specs: tuple[ColumnSpec, ...], scale: float
) -> list[tuple[ColumnSpec, int, int]]:
    """``(spec, rows, distinct)`` of every column, shrunk by ``scale``."""
    if not 0.0 < scale <= 1.0:
        raise DataGenerationError(f"scale must be in (0, 1], got {scale}")
    rows = max(1, int(round(n_rows * scale)))
    return [
        (spec, rows, max(1, min(rows, int(round(spec.distinct * scale)))))
        for spec in specs
    ]


def _build_dataset(
    name: str,
    n_rows: int,
    specs: tuple[ColumnSpec, ...],
    rng: np.random.Generator | None,
    scale: float,
) -> Dataset:
    scaled = _scaled_columns(n_rows, specs, scale)
    rng = rng if rng is not None else np.random.default_rng(0)
    return Dataset(
        name=name,
        columns=[
            column_with_distinct(rows, distinct, z=spec.skew, rng=rng, name=spec.name)
            for spec, rows, distinct in scaled
        ],
    )


def census(
    rng: np.random.Generator | None = None, scale: float = 1.0
) -> Dataset:
    """The Census (UCI Adult) surrogate; ``scale`` shrinks rows and cardinalities."""
    return _build_dataset("Census", CENSUS_ROWS, CENSUS_COLUMNS, rng, scale)


def covertype(
    rng: np.random.Generator | None = None, scale: float = 1.0
) -> Dataset:
    """The CoverType (UCI) surrogate."""
    return _build_dataset("CoverType", COVERTYPE_ROWS, COVERTYPE_COLUMNS, rng, scale)


def mssales(
    rng: np.random.Generator | None = None, scale: float = 1.0
) -> Dataset:
    """The MSSales (Microsoft-internal) surrogate."""
    return _build_dataset("MSSales", MSSALES_ROWS, MSSALES_COLUMNS, rng, scale)


#: Factory registry used by the experiment configs.
DATASETS = {
    "Census": census,
    "CoverType": covertype,
    "MSSales": mssales,
}

#: Row count and column specs of each surrogate, by dataset name.
_TABLES: dict[str, tuple[int, tuple[ColumnSpec, ...]]] = {
    "Census": (CENSUS_ROWS, CENSUS_COLUMNS),
    "CoverType": (COVERTYPE_ROWS, COVERTYPE_COLUMNS),
    "MSSales": (MSSALES_ROWS, MSSALES_COLUMNS),
}


def class_size_dataset(name: str, scale: float = 1.0) -> Dataset:
    """A surrogate whose columns hold only their class sizes.

    Each column has the class sizes of the same column of
    ``DATASETS[name](rng, scale)``, but no rows: the experiment sweeps
    draw its sample profiles from the sizes alone, so they need no
    layout and no random stream (see :class:`~repro.data.column.Column`).
    """
    try:
        n_rows, specs = _TABLES[name]
    except KeyError:
        raise DataGenerationError(
            f"unknown dataset {name!r}; known: {', '.join(sorted(_TABLES))}"
        ) from None
    return Dataset(
        name=name,
        columns=[
            Column.from_class_sizes(
                distinct_class_sizes(rows, distinct, z=spec.skew), name=spec.name
            )
            for spec, rows, distinct in _scaled_columns(n_rows, specs, scale)
        ],
    )
