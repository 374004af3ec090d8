"""R901 — exception hygiene: no bare or silently-swallowed handlers.

A reproduction's credibility rests on failures being *visible*: a
``except: pass`` around a sampler or a journal write converts a wrong
answer into a quiet one.  Library code under ``repro/`` therefore must
not:

* use a bare ``except:`` — it catches ``SystemExit`` and
  ``KeyboardInterrupt``, so a Ctrl-C (or a supervised worker's
  termination) can be swallowed by accident;
* catch ``Exception`` / ``BaseException`` (alone or in a tuple) and then
  neither re-raise nor log — the classic swallowed exception.  A broad
  handler is legitimate exactly when the failure stays observable: a
  ``raise`` (even of a translated error) or a logging call in the
  handler body satisfies the rule.

Narrow handlers (``except ImportError:``, ``except ReproError:``) are
out of scope — catching a *specific* expected failure and substituting a
fallback is ordinary control flow.  Sites that must swallow broadly by
design (a fault-injection shim, a CLI top-level guard) use the standard
suppression pragma (``# reprolint: disable=R901 - reason``), which keeps
each exemption visible and individually justified.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.project import ProjectContext
from repro.analysis.rules.base import Rule, register
from repro.analysis.source import SourceModule

__all__ = ["ExceptionHygiene"]

#: Names whose capture makes a handler "broad": everything (and worse).
_BROAD_NAMES = frozenset({"Exception", "BaseException"})

#: Method names that count as logging the failure.
_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log", "warn"}
)


def _broad_name(annotation: ast.expr | None) -> str | None:
    """The broad exception name a handler catches, or None when narrow.

    Handles ``except Exception:``, ``except (ValueError, Exception):``,
    and dotted spellings like ``builtins.Exception``.
    """
    if annotation is None:
        return None
    candidates: list[ast.expr] = (
        list(annotation.elts) if isinstance(annotation, ast.Tuple) else [annotation]
    )
    for candidate in candidates:
        if isinstance(candidate, ast.Name) and candidate.id in _BROAD_NAMES:
            return candidate.id
        if isinstance(candidate, ast.Attribute) and candidate.attr in _BROAD_NAMES:
            return candidate.attr
    return None


def _keeps_failure_visible(handler: ast.ExceptHandler) -> bool:
    """True when the handler body re-raises or logs the failure."""
    for node in ast.walk(ast.Module(body=handler.body, type_ignores=[])):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _LOG_METHODS:
                return True
    return False


@register
class ExceptionHygiene(Rule):
    """Flag bare ``except:`` and silently-swallowed broad handlers."""

    code = "R901"
    name = "exception-hygiene"
    description = (
        "bare except:, or a broad except Exception handler that neither "
        "re-raises nor logs; failures in library code must stay visible"
    )

    rationale = (
        'In an estimation pipeline a swallowed exception does not crash —\n'
        'it ships a wrong number.  A bare except even catches\n'
        'KeyboardInterrupt/SystemExit, making runs unkillable.  Broad\n'
        'handlers that neither re-raise nor log convert every future bug\n'
        'in the protected block into silent data corruption.'
    )
    example = (
        'try:\n'
        '    stats = analyze(column)\n'
        'except Exception:\n'
        '    stats = None                    # R901: the failure vanishes\n'
        '\n'
        'except Exception:\n'
        '    _LOG.exception("analyze failed for %s", column.name)\n'
        '    raise                           # visible and attributable\n'
    )
    remediation = (
        'Catch the narrowest exception the block can actually raise, and\n'
        'either re-raise (possibly wrapped in a project error) or log at\n'
        'warning+ with context before a *documented* fallback.'
    )

    def check(
        self, module: SourceModule, context: ProjectContext
    ) -> Iterator[Finding]:
        if not module.in_package("repro"):
            return
        for node in module.index.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    "bare except: also catches SystemExit and "
                    "KeyboardInterrupt; catch Exception or narrower",
                )
                continue
            broad = _broad_name(node.type)
            if broad is not None and not _keeps_failure_visible(node):
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"except {broad} swallows the failure silently; "
                    "re-raise, narrow the exception type, or log what "
                    "was suppressed",
                )
