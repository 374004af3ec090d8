"""Taint lattice: which nondeterminism sources may reach a value.

The interval lattice (:mod:`repro.analysis.dataflow.intervals`) answers
"what numbers can this expression be"; this lattice answers "which
*nondeterminism sources* may have influenced it".  An abstract value is
a plain ``frozenset`` of labels — the powerset of :data:`ALL_LABELS`
ordered by inclusion — so joins are unions, bottom is the empty set
("provably deterministic data flow"), and every chain is finite, which
makes the interprocedural fixpoint in
:mod:`repro.analysis.dataflow.taintflow` terminate unconditionally.

Labels come in two families:

* **value labels** — the bytes of the value itself depend on something
  outside the program's seeds: an OS-entropy RNG (:data:`RNG`), a clock
  read (:data:`CLOCK`), an environment variable (:data:`ENV`), or
  per-process object identity / ``PYTHONHASHSEED`` (:data:`IDENTITY`).
  These feed rule R1001.
* **order labels** — the value's *element order* is arbitrary even
  though its contents are deterministic: anything iterated out of a
  ``set``/``frozenset`` (:data:`SET_ORDER`).  Order-sensitive reductions
  (float summation, first-wins dict construction) turn that into a
  value-level difference, which is rule R1002's business.  Sorting is
  the canonical sanitizer: ``sorted(s)`` erases :data:`SET_ORDER`
  because the result no longer depends on iteration order.
"""

from __future__ import annotations

__all__ = [
    "RNG",
    "CLOCK",
    "ENV",
    "IDENTITY",
    "SET_ORDER",
    "ALL_LABELS",
    "VALUE_LABELS",
    "ORDER_LABELS",
    "Taint",
    "CLEAN",
    "PARAM_PREFIX",
    "describe",
    "param_label",
    "split_params",
]

#: OS-entropy randomness: ``default_rng()`` / ``SeedSequence()`` without
#: entropy, ``uuid4()``, ``os.urandom``, the ``secrets`` module.
RNG = "rng"

#: Wall/monotonic clock reads: ``time.time()``, ``datetime.now()`` ….
CLOCK = "clock"

#: Environment reads: ``os.environ[...]`` / ``os.getenv(...)``.
ENV = "env"

#: Per-process identity: ``id()``, builtin ``hash()`` (PYTHONHASHSEED).
IDENTITY = "identity"

#: Arbitrary element order from ``set``/``frozenset`` iteration.
SET_ORDER = "set-order"

#: Every label, in severity-then-alphabetical display order.
ALL_LABELS = frozenset({RNG, CLOCK, ENV, IDENTITY, SET_ORDER})

#: Labels that make the value's *bytes* nondeterministic (R1001).
VALUE_LABELS = frozenset({RNG, CLOCK, ENV, IDENTITY})

#: Labels that make only the *element order* nondeterministic (R1002).
ORDER_LABELS = frozenset({SET_ORDER})


#: Prefix for the synthetic per-parameter labels the interprocedural
#: engine threads through a function body to learn which parameters may
#: flow into the return value.  They never escape a summary.
PARAM_PREFIX = "param:"


def param_label(name: str) -> str:
    """The synthetic label tracking flow from parameter ``name``."""
    return PARAM_PREFIX + name


#: An element of the label-powerset lattice: join is ``|``, the order
#: is ``<=``, and sanitizing drops labels with ``-``.
Taint = frozenset[str]

#: The bottom element: no nondeterminism source may reach the value.
CLEAN: Taint = frozenset()


def describe(taint: Taint) -> str:
    """Stable human rendering, e.g. ``"clock+env"``."""
    return "+".join(sorted(taint)) if taint else "clean"


def split_params(taint: Taint) -> tuple[Taint, frozenset[str]]:
    """Separate real labels from synthetic parameter labels.

    Returns ``(real_taint, parameter_names)`` — the building blocks of a
    function summary: concrete sources that reach the return value, plus
    the names of parameters whose taint would flow through.
    """
    params = frozenset(label for label in taint if label.startswith(PARAM_PREFIX))
    names = frozenset(label[len(PARAM_PREFIX):] for label in params)
    return taint - params, names
