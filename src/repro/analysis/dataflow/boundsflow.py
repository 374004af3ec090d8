"""``project_bounds``: the name ``bench/tracer.py`` times as ``analysis.bounds``.

The benchmark's tracer changes only with the benchmark, so the name
stays, bound to the same function as
:func:`~repro.analysis.dataflow.contract_lookup.contract_lookup`, until
the benchmark retires that layer.  The layer now times the lookup's own
index; each module's analysis is charged to ``analysis.intervals``.
"""

from repro.analysis.dataflow.contract_lookup import contract_lookup as project_bounds

__all__ = ["project_bounds"]
