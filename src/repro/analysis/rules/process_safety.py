"""Process-safety rules: R1101 (worker-shared state), R1201 (raw writes).

The sweep executor fans work out to pool workers.  Whatever those
workers are — forked, spawned, or threads — module-level mutable state
is a trap: a forked worker inherits a *copy* (mutations diverge
silently), a spawned worker re-imports the module (mutations are
simply lost), and threads race.  R1101 walks the call graph from every
resolvably-submitted task function and reports any reachable function
that mutates module-level state, with the chain that reaches it.  It
also flags ``lambda`` submissions directly: they cannot be pickled by
a spawn-based pool at all.

R1201 is the durability half: a raw ``open(path, "w")`` or
``Path.write_text`` truncates in place, so a crash mid-write leaves a
torn file that poisons resume logic.  ``repro.resilience.atomic_write``
(write-temp, fsync, rename) is the sanctioned way to land an artifact;
the ``repro/resilience`` package itself is exempt because it *is* that
implementation (and its append-mode journal is a deliberate,
crash-analyzed contract).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import (
    CallSiteResolver,
    ProjectCallGraph,
    cached_callgraph,
)
from repro.analysis.effects import GlobalMutation, collect_artifact_writes
from repro.analysis.findings import Finding
from repro.analysis.project import ProjectContext
from repro.analysis.rules.base import ProjectRule, Rule, register
from repro.analysis.source import SourceModule

__all__ = ["WorkerSharedState", "RawArtifactWrite"]


def _chain(path: list[str]) -> str:
    return " -> ".join(path)


@register
class WorkerSharedState(ProjectRule):
    """R1101: worker-reachable mutation of module-level mutable state."""

    code = "R1101"
    name = "worker-shared-state"
    description = (
        "function reachable from a pool-submitted task mutates "
        "module-level state, which forked/spawned workers do not share"
    )

    rationale = (
        'Sweep tasks run in pool workers.  Module-level mutable state is\n'
        'a per-process illusion there: forked workers inherit a copy and\n'
        'diverge, spawned workers re-import and start empty, threads\n'
        "race.  A mutation anywhere in a task's call tree means worker\n"
        'behavior silently depends on pool scheduling.  The rule resolves\n'
        'every run_sweep/submit task function and walks its transitive\n'
        'callees for global rebinds (including if-None lazy init, which\n'
        'is additionally fork-unsafe mid-initialization), container\n'
        'mutations, and deletes.  Lambda submissions are flagged\n'
        'directly: a spawn-based pool cannot pickle them.'
    )
    example = (
        '_CACHE: dict[str, Data] = {}\n'
        '\n'
        'def _evaluate_point(spec):          # submitted to run_sweep\n'
        '    if spec.name not in _CACHE:\n'
        '        _CACHE[spec.name] = load(spec)   # R1101: each worker\n'
        '    return _CACHE[spec.name]             # fills a private copy\n'
    )
    remediation = (
        'Pass state into the task explicitly, recompute it worker-locally\n'
        "from the task's arguments, or document the per-process contract\n"
        'and suppress with a justification (as executor.memoized does —\n'
        'correctness there never depends on cross-process sharing).'
    )

    def check_project(
        self, modules: list[SourceModule], context: ProjectContext
    ) -> Iterator[Finding]:
        graph = cached_callgraph(modules, context)
        roots: dict[str, tuple[SourceModule, int]] = {}
        for module in modules:
            resolver = CallSiteResolver(graph, module)
            for key in sorted(graph.keys_of(module)):
                node = graph.nodes[key]
                for task in node.effects.submitted_tasks:
                    if isinstance(task.node, ast.Lambda):
                        yield self.finding(
                            module,
                            task.line,
                            task.col,
                            "lambda submitted as a pool task cannot be "
                            "pickled by a spawn-based pool; submit a "
                            "module-level function instead",
                        )
                        continue
                    if task.callee is None:
                        continue
                    target = resolver.resolve(
                        task.callee, node.effects.qualname
                    )
                    if target is not None and target not in roots:
                        roots[target] = (module, task.line)

        reported: set[str] = set()
        for root in sorted(roots):
            submit_module, submit_line = roots[root]
            for key in self._reachable(graph, root):
                node = graph.nodes.get(key)
                if node is None or key in reported:
                    continue
                mutations = node.effects.global_mutations
                if not mutations:
                    continue
                reported.add(key)
                names = self._grouped(mutations)
                path = [root] if key == root else (
                    graph.find_path(root, {key}) or [root, key]
                )
                yield self.finding(
                    node.module,
                    node.effects.node.lineno,
                    node.effects.node.col_offset,
                    f"{key} {names} and is reachable from worker task "
                    f"{root} (submitted at {submit_module.path}:"
                    f"{submit_line}, chain {_chain(path)}); worker "
                    "processes do not share module state — pass state "
                    "explicitly or keep it worker-local",
                )

    @staticmethod
    def _reachable(graph: ProjectCallGraph, root: str) -> list[str]:
        """Root plus every function transitively callable from it."""
        seen = {root}
        frontier = [root]
        while frontier:
            key = frontier.pop()
            for callee in graph.edges.get(key, ()):
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return sorted(seen)

    @staticmethod
    def _grouped(mutations: list[GlobalMutation]) -> str:
        """One readable clause covering every mutated module-level name."""
        by_name: dict[str, GlobalMutation] = {}
        for mutation in mutations:
            by_name.setdefault(mutation.name, mutation)
        parts = [
            f"'{name}' ({by_name[name].detail}, line {by_name[name].line})"
            for name in sorted(by_name)
        ]
        return "mutates module-level " + ", ".join(parts)


@register
class RawArtifactWrite(Rule):
    """R1201: truncating writes that bypass ``atomic_write``."""

    code = "R1201"
    name = "raw-artifact-write"
    description = (
        'raw open(..., "w")/Path.write_* truncates in place; a crash '
        "mid-write leaves a torn artifact — use resilience.atomic_write"
    )

    rationale = (
        'open(path, "w") truncates the old file before the new bytes are\n'
        'durable, so a crash mid-write destroys both versions — and the\n'
        'crash-safe sweep machinery then resumes from a torn checkpoint\n'
        'or half-written result.  atomic_write lands bytes in a temp\n'
        'file, fsyncs, and renames: readers see the old complete file or\n'
        'the new complete file, never a prefix.  Append-mode opens are\n'
        "exempt (the journal's crash contract is built on appends), as is\n"
        'repro/resilience itself — it implements the primitive.'
    )
    example = (
        'Path(path).write_text(json.dumps(records))   # R1201: torn on\n'
        '                                             # crash mid-write\n'
        '\n'
        'from repro.resilience import atomic_write\n'
        'atomic_write(path, json.dumps(records))      # old or new, never\n'
        '                                             # a prefix\n'
    )
    remediation = (
        'Serialize in memory and land the payload with atomic_write.\n'
        'For numpy arrays, save into a BytesIO and atomic_write the\n'
        'buffer (see repro.data.io.save_column).'
    )

    def check(
        self, module: SourceModule, context: ProjectContext
    ) -> Iterator[Finding]:
        if module.in_package("repro", "resilience"):
            return  # the atomic/journal implementation layer itself
        for write in collect_artifact_writes(module):
            yield self.finding(
                module,
                write.line,
                write.col,
                f"{write.description}; route the write through "
                "repro.resilience.atomic_write so a mid-write crash "
                "cannot leave a torn file",
            )
