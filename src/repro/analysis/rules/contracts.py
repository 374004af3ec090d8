"""Contract checking (R702): ``@requires``/``@ensures`` vs. the prover.

The estimator entry points declare the paper's preconditions as
machine-readable clauses (:mod:`repro.contracts`).  The dataflow engine
parses every clause into its interval domain and classifies it:

``proved``
    every return path satisfies the clause — nothing to do at runtime;
``runtime``
    the lattice cannot decide; the optional runtime assert
    (``REPRO_CONTRACTS=1``) is the safety net;
``violated``
    some return expression provably lies *outside* the clause — the
    contract and the code disagree, and one of them is wrong.

Only ``violated`` is a finding (R702): it is the one verdict that cannot
be fixed by running more tests, because the disagreement holds on every
execution the abstract semantics covers.  The full verdict table — the
``proved`` wins included — is what ``repro lint --prove`` prints.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.dataflow import module_intervals
from repro.analysis.dataflow.contract_lookup import needs_intervals
from repro.analysis.findings import Finding
from repro.analysis.project import ProjectContext
from repro.analysis.rules.base import Rule, register
from repro.analysis.source import SourceModule

__all__ = ["ContractViolation"]


@register
class ContractViolation(Rule):
    """R702: a contract clause the interval prover shows to be false."""

    code = "R702"
    name = "contract-violation"
    description = (
        "@requires/@ensures clause provably violated by the function body"
    )

    rationale = (
        'Contracts are only checked at runtime under REPRO_CONTRACTS=1,\n'
        'which CI enables but production callers may not.  When the\n'
        'interval engine can *prove* a body violates its own declared\n'
        'clause, waiting for a runtime trip is pointless — either the\n'
        'contract is wrong or the code is, and both are bugs now.'
    )
    example = (
        '@ensures("result >= 1")\n'
        'def estimate(self, profile):\n'
        '    return 0.5 * profile.d_sample   # R702: provably < 1 when\n'
        '                                    # d_sample == 1\n'
    )
    remediation = (
        'Fix whichever side is wrong: tighten the body (clamp, guard) or\n'
        'correct the clause to the invariant the code actually keeps.'
    )

    def check(
        self, module: SourceModule, context: ProjectContext
    ) -> Iterator[Finding]:
        if not needs_intervals(module):
            return
        for verdict in module_intervals(module).contract_verdicts():
            if verdict.verdict != "violated":
                continue
            yield self.finding(
                module,
                verdict.lineno,
                0,
                f"@{verdict.kind}({verdict.clause!r}) on "
                f"{verdict.qualname} is provably violated: a return path "
                "lies outside the clause on every execution",
            )
