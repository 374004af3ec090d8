"""Parsed source modules and ``# reprolint: disable=...`` suppressions.

Suppressions are the *explicit baseline* mechanism the rules rely on:
every accepted violation must carry a visible marker at the offending
line (or a file-level marker near the top of the module), so the debt is
auditable in the diff rather than hidden in analyzer state.

Two forms are recognized::

    risky = a / b  # reprolint: disable=R101
    # reprolint: disable-file=R601

The line form silences the listed codes on its own line only; the file
form silences them for the whole module.  ``disable=all`` silences every
rule (use sparingly — generated files, vendored code).

Each module also owns a :class:`ModuleIndex` of its tree's traversals,
so one lint run walks each tree once, not once per rule, and one
:func:`import_table`, through which :func:`qualified_name` names what a
call or attribute refers to (``np.log`` under ``import numpy as np`` is
``numpy.log``).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterator, TypeVar

__all__ = [
    "SUPPRESS_ALL",
    "ModuleIndex",
    "SourceModule",
    "SuppressionTable",
    "import_table",
    "module_name",
    "qualified_name",
]

_T = TypeVar("_T")

_LINE_PRAGMA = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)")
_FILE_PRAGMA = re.compile(r"#\s*reprolint:\s*disable-file=([A-Za-z0-9_,\s]+)")

#: Sentinel meaning "every code is suppressed".
SUPPRESS_ALL = "all"
_ALL = SUPPRESS_ALL


def _parse_codes(raw: str) -> set[str]:
    return {code.strip() for code in raw.split(",") if code.strip()}


@dataclass
class SuppressionTable:
    """Per-line and per-file suppression state for one module."""

    by_line: dict[int, set[str]] = field(default_factory=dict)
    file_wide: set[str] = field(default_factory=set)
    #: Line each file-wide code was first declared on (for stale reports).
    file_wide_lines: dict[str, int] = field(default_factory=dict)

    def is_suppressed(self, line: int, code: str) -> bool:
        """True when ``code`` is silenced at ``line``."""
        if code in self.file_wide or _ALL in self.file_wide:
            return True
        codes = self.by_line.get(line)
        if codes is None:
            return False
        return code in codes or _ALL in codes

    def matching_entries(self, line: int, code: str) -> list[tuple[int, str, bool]]:
        """Every pragma entry that silences ``code`` at ``line``.

        Entries are ``(pragma_line, pragma_code, file_wide)`` triples in
        the same shape :meth:`pragma_entries` yields, so the runner can
        mark exactly which declared pragmas did real work — the residue
        is what the stale-suppression rule (R701) reports.  An empty list
        means the finding is *not* suppressed.
        """
        matches: list[tuple[int, str, bool]] = []
        at_line = self.by_line.get(line, set())
        for pragma_code in (code, _ALL):
            if pragma_code in self.file_wide:
                matches.append(
                    (self.file_wide_lines.get(pragma_code, 1), pragma_code, True)
                )
            if pragma_code in at_line:
                matches.append((line, pragma_code, False))
        return matches

    def pragma_entries(self) -> list[tuple[int, str, bool]]:
        """Every declared pragma entry as ``(line, code, file_wide)``."""
        entries = [
            (line, code, False)
            for line, codes in sorted(self.by_line.items())
            for code in sorted(codes)
        ]
        entries.extend(
            (self.file_wide_lines.get(code, 1), code, True)
            for code in sorted(self.file_wide)
        )
        return entries

    @classmethod
    def from_source(cls, text: str) -> "SuppressionTable":
        """Extract suppression pragmas from real comments only.

        Tokenizing (rather than regex over raw lines) keeps pragma-like
        text inside string literals from being treated as a suppression.
        A pragma needs the word ``reprolint``, so a module without it is
        not tokenized at all.
        """
        table = cls()
        if "reprolint" not in text:
            return table
        try:
            tokens = tokenize.generate_tokens(io.StringIO(text).readline)
            for token in tokens:
                if token.type != tokenize.COMMENT:
                    continue
                file_match = _FILE_PRAGMA.search(token.string)
                if file_match:
                    for code in _parse_codes(file_match.group(1)):
                        table.file_wide.add(code)
                        table.file_wide_lines.setdefault(code, token.start[0])
                    continue
                line_match = _LINE_PRAGMA.search(token.string)
                if line_match:
                    line = token.start[0]
                    table.by_line.setdefault(line, set()).update(
                        _parse_codes(line_match.group(1))
                    )
        except tokenize.TokenError:
            # Unterminated constructs: the AST parse will report the
            # real syntax error; suppressions just stay empty.
            pass
        return table


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _walk_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Yield descendants of ``node`` without entering nested scopes."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, _SCOPE_NODES):
            stack.extend(ast.iter_child_nodes(child))


class ModuleIndex:
    """The traversals of one module tree, each computed on first use.

    Each is a tuple of the tree's own nodes in the exact order of the
    walk it replaces, so passes that keep their first match are
    unaffected.  The tree must not be mutated once it is indexed.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.tree = tree
        #: Whole-module tables keyed by builder (:meth:`SourceModule.derived`).
        self.tables: dict[Callable[..., object], object] = {}
        self._walks: dict[ast.AST, tuple[ast.AST, ...]] = {}
        self._scopes: dict[ast.AST, tuple[ast.AST, ...]] = {}

    @cached_property
    def nodes(self) -> tuple[ast.AST, ...]:
        """Every node of the module in ``ast.walk`` (breadth-first) order."""
        return tuple(ast.walk(self.tree))

    def walk(self, function: ast.AST) -> tuple[ast.AST, ...]:
        """``ast.walk(function)`` order, computed once per function node."""
        if function not in self._walks:
            self._walks[function] = tuple(ast.walk(function))
        return self._walks[function]

    def scope(self, node: ast.AST) -> tuple[ast.AST, ...]:
        """The own-scope nodes of the module, a class, function or lambda."""
        if node not in self._scopes:
            self._scopes[node] = tuple(_walk_scope(node))
        return self._scopes[node]


@dataclass
class SourceModule:
    """One parsed Python file, ready for rules to visit.

    ``path`` is kept exactly as supplied (relative paths stay relative)
    so findings render the way the user referenced the tree.
    """

    path: str
    text: str
    tree: ast.Module
    suppressions: SuppressionTable

    @classmethod
    def from_source(cls, text: str, path: str = "<memory>") -> "SourceModule":
        """Build a module from in-memory source (fixture tests use this)."""
        return cls(
            path=path,
            text=text,
            tree=ast.parse(text, filename=path),
            suppressions=SuppressionTable.from_source(text),
        )

    @classmethod
    def from_file(cls, path: Path | str) -> "SourceModule":
        """Parse a file from disk; raises ``SyntaxError`` on bad source."""
        text = Path(path).read_text(encoding="utf-8")
        return cls.from_source(text, path=str(path))

    @cached_property
    def index(self) -> ModuleIndex:
        """This module's traversal index, built on first use."""
        return ModuleIndex(self.tree)

    def derived(self, build: Callable[[SourceModule], _T]) -> _T:
        """``build(self)``, computed once and kept in this module's index."""
        tables = self.index.tables
        if build not in tables:
            tables[build] = build(self)
        return tables[build]  # type: ignore[return-value]

    def in_package(self, *parts: str) -> bool:
        """True when this module lives under the given package path.

        ``module.in_package("repro", "data")`` matches any path containing
        the directory run ``repro/data`` — used by rules whose scope is a
        subtree (e.g. the RNG exemption for the data generators).
        """
        pieces = Path(self.path).parts
        span = len(parts)
        return any(
            pieces[i : i + span] == parts for i in range(len(pieces) - span + 1)
        )


#: Top-level package whose files are named by their dotted module path.
_ROOT_PACKAGE = "repro"


def module_name(path: str) -> str:
    """Dotted module name for a source path.

    ``src/repro/sampling/schemes.py`` → ``repro.sampling.schemes``;
    package ``__init__.py`` files name the package itself.  Paths without
    a ``repro`` component (test fixtures) fall back to the file stem.
    """
    parts = list(Path(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    try:
        root = parts.index(_ROOT_PACKAGE)
    except ValueError:
        return parts[-1] if parts else path
    return ".".join(parts[root:])


def import_table(module: SourceModule) -> dict[str, str]:
    """Local name → dotted name of what an import binds it to, module-wide.

    ``import numpy as np`` binds ``np`` to ``numpy``, ``import os.path``
    binds ``os`` to ``os``, and ``from numpy import random as nr`` binds
    ``nr`` to ``numpy.random``; a relative import resolves against the
    module's package.  Read it as ``module.derived(import_table)``, so a
    lint run builds each module's table once.
    """
    modname = module_name(module.path)
    if Path(module.path).name == "__init__.py":
        package = modname
    else:
        package = modname.rpartition(".")[0] or modname
    table: dict[str, str] = {}
    for node in module.index.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    head = alias.name.split(".", 1)[0]
                    table[head] = head
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                parts = package.split(".")
                if node.level > len(parts):
                    continue
                base = ".".join(parts[: len(parts) - node.level + 1])
                source = f"{base}.{source}" if source else base
            for alias in node.names:
                if alias.name != "*":
                    table[alias.asname or alias.name] = f"{source}.{alias.name}"
    return table


def qualified_name(module: SourceModule, expr: ast.expr) -> str | None:
    """The dotted name ``expr`` denotes through ``module``'s imports.

    ``np.random.rand`` under ``import numpy as np`` is
    ``numpy.random.rand``, and ``log`` under ``from math import log`` is
    ``math.log``.  None unless ``expr`` is a name or attribute chain whose
    leftmost name an import binds.
    """
    attrs: list[str] = []
    while isinstance(expr, ast.Attribute):
        attrs.append(expr.attr)
        expr = expr.value
    if not isinstance(expr, ast.Name):
        return None
    target = module.derived(import_table).get(expr.id)
    if target is None:
        return None
    return ".".join([target, *reversed(attrs)])
