"""Data generation: Zipfian synthetics (§6) and real-dataset surrogates."""

from repro.data.column import Column
from repro.data.io import load_column, load_csv_column
from repro.data.surrogates import (
    DATASETS,
    ColumnSpec,
    Dataset,
    census,
    class_size_dataset,
    covertype,
    mssales,
)
from repro.data.synthetic import (
    all_distinct_column,
    bounded_scaleup_column,
    clustered_column,
    column_with_distinct,
    constant_column,
    distinct_class_sizes,
    needle_column,
    unbounded_scaleup_column,
    uniform_column,
)
from repro.data.zipf import shuffled_from_class_sizes, zipf_class_sizes, zipf_column

__all__ = [
    "Column",
    "load_column",
    "load_csv_column",
    "DATASETS",
    "ColumnSpec",
    "Dataset",
    "census",
    "class_size_dataset",
    "covertype",
    "mssales",
    "all_distinct_column",
    "bounded_scaleup_column",
    "clustered_column",
    "column_with_distinct",
    "constant_column",
    "distinct_class_sizes",
    "needle_column",
    "unbounded_scaleup_column",
    "uniform_column",
    "shuffled_from_class_sizes",
    "zipf_class_sizes",
    "zipf_column",
]
