"""Cross-module flow rules: R302 (transitive RNG) and R402 (transitive purity).

R301 and R401 check one function body at a time, which leaves two
transitive gaps the reproducibility argument cannot afford:

* the ``repro/data`` RNG exemption is scoped to *data generators being
  called from experiment entry points that own the seed*.  Non-exempt
  code that calls **into** an exempt global-RNG user inherits hidden
  global state with no local trace — R302 follows the call graph and
  reports the chain;
* the estimator contract makes estimation a pure map from the frequency
  profile.  An estimation method that calls an impure project helper
  (one using the global RNG or writing ``global`` state) is impure by
  composition even though its own body is clean — R402 reports that
  chain.

Both rules use the conservative call graph of
:mod:`repro.analysis.callgraph`: unresolvable calls add no edge, so a
reported path is always a real, readable chain of project functions.
Both are project rules (their truth spans files) and both hold at zero
findings on this tree — they exist to stay at zero.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.callgraph import ProjectCallGraph, cached_callgraph
from repro.analysis.findings import Finding
from repro.analysis.project import ProjectContext
from repro.analysis.rules.base import ProjectRule, register
from repro.analysis.rules.purity import _is_estimation_method
from repro.analysis.source import SourceModule

__all__ = ["TransitiveGlobalRng", "TransitiveImpurity"]


def _chain(path: list[str]) -> str:
    return " -> ".join(path)


@register
class TransitiveGlobalRng(ProjectRule):
    """R302: non-exempt code reaching a global-RNG use in exempt modules."""

    code = "R302"
    name = "transitive-global-rng"
    description = (
        "function outside repro/data transitively calls an exempt "
        "global-RNG user; plumb an explicit Generator through the chain"
    )

    rationale = (
        "R301's repro/data exemption covers data generators *called by\n"
        'seed-owning entry points*.  Code elsewhere that calls into an\n'
        'exempt global-RNG user inherits hidden global state with no\n'
        'local trace — the violation is only visible on the call graph,\n'
        'which is exactly where this rule looks.'
    )
    example = (
        '# repro/data/synthetic.py (exempt)\n'
        'def draw_zipf(n):\n'
        '    return np.random.zipf(1.2, n)       # allowed here\n'
        '\n'
        '# repro/experiments/ad_hoc.py\n'
        'def quick_check():\n'
        '    return draw_zipf(100)               # R302: inherits the\n'
        '                                        # global state transitively\n'
    )
    remediation = (
        'Pass an explicit numpy Generator down the chain (the exempt\n'
        'callees all accept one), or hoist the call behind a seed-owning\n'
        'entry point.'
    )

    def check_project(
        self, modules: list[SourceModule], context: ProjectContext
    ) -> Iterator[Finding]:
        graph = cached_callgraph(modules, context)
        targets = {
            key
            for key, node in graph.nodes.items()
            if node.effects.rng_use is not None
            and node.module.in_package("repro", "data")
        }
        if not targets:
            return
        paths: dict[str, list[str]] = {}
        for key in sorted(graph.nodes):
            node = graph.nodes[key]
            if node.module.in_package("repro", "data"):
                continue  # exempt callers are R301's concern, not ours
            path = graph.find_path(key, targets)
            if path is not None:
                paths[key] = path
        # Report only chain *heads*: one finding at the outermost entry,
        # carrying the full chain, instead of one per intermediate link.
        downstream = {
            callee for key in paths for callee in graph.edges.get(key, ())
        }
        for key in sorted(set(paths) - downstream):
            node = graph.nodes[key]
            path = paths[key]
            yield self.finding(
                node.module,
                node.effects.node.lineno,
                node.effects.node.col_offset,
                f"{key} reaches global-RNG state via {_chain(path)}; "
                "the callee is exempt from R301 but this caller is not — "
                "pass an explicit numpy.random.Generator down the chain",
            )


@register
class TransitiveImpurity(ProjectRule):
    """R402: an estimation method transitively calling an impure helper."""

    code = "R402"
    name = "transitive-impurity"
    description = (
        "estimator estimation method transitively calls a function that "
        "uses the global RNG or writes global state"
    )

    rationale = (
        'The estimator contract makes estimation a pure map from the\n'
        'frequency profile.  A clean-looking estimate() that calls an\n'
        'impure project helper is impure by composition: repeated calls\n'
        'can disagree, and parallel sweeps lose repeatability.  Purity\n'
        'must hold over the whole call tree, not one body.'
    )
    example = (
        'class Gee(DistinctValueEstimator):\n'
        '    def _estimate_raw(self, profile):\n'
        '        return _helper(profile)         # R402 if _helper uses\n'
        '                                        # random.random() inside\n'
    )
    remediation = (
        'Make the helper pure (thread state through parameters) or move\n'
        'the impure work out of the estimation path entirely.'
    )

    def check_project(
        self, modules: list[SourceModule], context: ProjectContext
    ) -> Iterator[Finding]:
        graph = cached_callgraph(modules, context)
        targets = {
            key for key, node in graph.nodes.items() if node.effects.impure
        }
        if not targets:
            return
        for key in sorted(graph.nodes):
            node = graph.nodes[key]
            if not _is_estimation_method(key, context):
                continue
            path = graph.find_path(key, targets)
            if path is None:
                continue
            tail = graph.nodes[path[-1]].effects
            cause = (
                "uses the global RNG"
                if tail.rng_use is not None
                else "writes global state"
            )
            yield self.finding(
                node.module,
                node.effects.node.lineno,
                node.effects.node.col_offset,
                f"{key} is an estimation method but {_chain(path)} "
                f"{cause}; estimation must stay a pure function of the "
                "profile",
            )
