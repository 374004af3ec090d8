"""R301 — RNG discipline: no global-state randomness outside the generators.

The estimator contract says estimators "take no randomness of their own"
(:mod:`repro.core.base`): reproducibility of every experiment in the
paper reproduction depends on *all* randomness flowing through
explicitly seeded ``numpy.random.Generator`` objects handed down from
the entry point.  A single ``np.random.shuffle`` or ``random.random()``
call reads hidden process-global state, which breaks replay, breaks
sharding (workers share the global stream), and invalidates variance
measurements.

Only the data-generation package (``repro/data``) is exempt — and even
there the shipped code plumbs explicit generators; the exemption simply
scopes the *rule* to where the contract's reproducibility argument
applies.  (R302 in :mod:`repro.analysis.rules.flow` closes the gap the
exemption opens: non-exempt code *calling into* an exempt RNG user.)

The detection itself lives in :mod:`repro.analysis.effects` so the
cross-module flow rules can reuse it; this rule renders each collected
use site as a finding.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.effects import collect_rng_uses
from repro.analysis.findings import Finding
from repro.analysis.project import ProjectContext
from repro.analysis.rules.base import Rule, register
from repro.analysis.source import SourceModule

__all__ = ["GlobalRandomState"]


@register
class GlobalRandomState(Rule):
    """Flag stdlib ``random`` usage and ``np.random.*`` global-state calls."""

    code = "R301"
    name = "global-random-state"
    description = (
        "global-state RNG call (stdlib random or np.random.<fn>); plumb an "
        "explicit numpy Generator instead"
    )

    rationale = (
        'random.random() and np.random.rand() draw from hidden\n'
        'process-global state: any import or library call that also\n'
        'touches it silently reorders every later draw, so runs are only\n'
        "reproducible by accident.  The paper's experiments demand that\n"
        "each trial's randomness be a pure function of its seed, which\n"
        'only explicitly-passed Generators deliver.'
    )
    example = (
        'noise = np.random.normal(size=n)        # R301: global state\n'
        '\n'
        'def trial(rng: np.random.Generator) -> np.ndarray:\n'
        '    return rng.normal(size=n)           # caller owns the seed\n'
    )
    remediation = (
        'Construct a Generator at the experiment boundary\n'
        '(default_rng(seed) or SeedSequence.spawn) and pass it through\n'
        'every function that needs randomness.  repro/data generators are\n'
        'exempt only when driven by seed-owning entry points.'
    )

    def check(
        self, module: SourceModule, context: ProjectContext
    ) -> Iterator[Finding]:
        if module.in_package("repro", "data"):
            return
        for use in collect_rng_uses(module):
            yield self.finding(module, use.line, use.col, use.message)
