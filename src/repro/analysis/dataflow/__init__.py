"""Intraprocedural dataflow: CFG + sign/interval abstract interpretation.

This package answers the question the numeric rules care about: *can
this expression be zero or negative at this program point*.  Naming a
variable in a comparison does not answer it (``if r > 100: return``
leaves ``r == 0`` possible); the engine must prove it.  It builds a
control-flow graph per function, runs a standard interval abstract
interpretation over locals, parameters, and ``self.<attr>``
pseudo-variables (with widening at loop heads), and refines intervals
along branch edges from validation guards like ``if n < 1: raise`` or
``assert 0.0 < gamma < 1.0``.

The layers:

* :mod:`repro.analysis.dataflow.intervals` — the lattice: closed
  intervals over the extended reals plus a ``nonzero`` bit, with the
  arithmetic/builtin transfer functions;
* :mod:`repro.analysis.dataflow.cfg` — per-function control-flow graphs
  whose edges carry the branch condition they assume;
* :mod:`repro.analysis.dataflow.engine` — the worklist fixpoint, guard
  refinement, class-attribute facts, contract-clause seeding, and the
  :class:`~repro.analysis.dataflow.engine.ModuleIntervals` facade the
  rules query;
* :mod:`repro.analysis.dataflow.contract_lookup` — resolves the calls
  a module cannot resolve itself and answers each with the callee's
  contract;
* :mod:`repro.analysis.dataflow.taint` /
  :mod:`repro.analysis.dataflow.taintflow` — the second lattice: a
  finite powerset of nondeterminism labels with an *interprocedural*
  summary fixpoint over the project call graph, powering the
  determinism rules R1001/R1002.

Soundness caveats (documented, deliberate): arithmetic is interpreted
over the reals (float underflow/overflow to zero or inf is ignored);
casts to narrow integer dtypes are assumed not to wrap; attribute facts
trust encapsulation (no external writes to
``obj.attr``); ``@ensures`` clauses of called functions are assumed at
call sites — each is verified at its own definition, statically where
provable and at runtime under ``REPRO_CONTRACTS=1`` otherwise.
"""

from repro.analysis.dataflow.cfg import ControlFlowGraph, build_cfg
from repro.analysis.dataflow.engine import (
    ClauseVerdict,
    FunctionAnalysis,
    ModuleIntervals,
    module_intervals,
)
from repro.analysis.dataflow.intervals import Interval
from repro.analysis.dataflow.taint import CLEAN, Taint

# NOTE: ``taintflow`` and ``contract_lookup`` are deliberately *not*
# re-exported here.  Both import :mod:`repro.analysis.effects` (for
# source classification and call keys), and effects imports the taint
# lattice from this package — re-exporting either from the package
# ``__init__`` would close that cycle.  Consumers import them directly.

__all__ = [
    "CLEAN",
    "ClauseVerdict",
    "ControlFlowGraph",
    "FunctionAnalysis",
    "Interval",
    "ModuleIntervals",
    "Taint",
    "build_cfg",
    "module_intervals",
]
