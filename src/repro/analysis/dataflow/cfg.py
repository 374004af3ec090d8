"""Per-function control-flow graphs with guard-carrying edges.

The graph is deliberately small: nodes are basic blocks (runs of simple
statements), and every edge optionally records the branch condition it
assumes — ``Edge(dst, test, assume)`` means "control reaches ``dst``
when ``test`` evaluated to ``assume``".  The abstract interpreter in
:mod:`repro.analysis.dataflow.engine` refines variable intervals along
those edges, which is how validation guards like ``if n < 1: raise``
become facts (``n >= 1``) on the fall-through path.

Structures handled: ``if``/``elif``/``else``, ``while`` (with ``break``
and ``continue``), ``for`` (the loop header forgets the target each
iteration), ``try``/``except``/``finally``, ``with``, ``assert`` (a
guard whose failing edge raises), ``return`` and ``raise`` (block
dead-ends).  Anything else is treated as a plain statement with
fall-through.

Three places can be reached from any point of a body, with whatever
state the body left midway: an ``except`` handler, a ``finally`` body,
and the code after a ``with`` whose context manager swallows the
exception.  A *forgetting* edge (``Edge(dst, forget=True)``) enters
each from before the body with every local unknown.  A block no edge
reaches is dead code, which the engine proves anything about.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["Block", "ControlFlowGraph", "Edge", "build_cfg"]


@dataclass
class Edge:
    """Control transfer to block ``dst``; if ``test`` is set, the edge is
    only taken when ``test`` evaluates to ``assume``.  A ``forget`` edge
    arrives with every local unknown."""

    dst: int
    test: ast.expr | None = None
    assume: bool = True
    forget: bool = False


@dataclass
class Block:
    """A straight-line run of statements followed by outgoing edges."""

    index: int
    statements: list[ast.stmt] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)


@dataclass
class ControlFlowGraph:
    """CFG for one function body."""

    blocks: list[Block] = field(default_factory=list)
    entry: int = 0
    #: Indices of loop-header blocks (widening points for the fixpoint).
    loop_heads: set[int] = field(default_factory=set)

    def new_block(self) -> Block:
        """Allocate and register an empty basic block."""
        block = Block(index=len(self.blocks))
        self.blocks.append(block)
        return block


class _Builder:
    def __init__(self) -> None:
        self.cfg = ControlFlowGraph()
        self.entry = self.cfg.new_block()
        self.current: Block | None = self.entry
        # (loop_head_index, after_loop_index) for break/continue targets.
        self._loops: list[tuple[int, int]] = []

    # -- plumbing ------------------------------------------------------
    def _link(self, src: Block, dst: Block,
              test: ast.expr | None = None, assume: bool = True) -> None:
        src.edges.append(Edge(dst.index, test, assume))

    def _start_block(self) -> Block:
        block = self.cfg.new_block()
        self.current = block
        return block

    # -- statement dispatch --------------------------------------------
    def add_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            if self.current is None:
                # Unreachable code after return/raise/break: give it a
                # detached block so its expressions still get (empty) envs.
                self._start_block()
            self.add_statement(stmt)

    def add_statement(self, stmt: ast.stmt) -> None:
        assert self.current is not None
        if isinstance(stmt, ast.If):
            self._add_if(stmt)
        elif isinstance(stmt, ast.While):
            self._add_while(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._add_for(stmt)
        elif isinstance(stmt, ast.Try):
            self._add_try(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            entry = self.current
            entry.statements.append(stmt)
            self.add_body(stmt.body)
            body_exit = self.current
            after = self._start_block()
            if body_exit is not None:
                self._link(body_exit, after)
            # The context manager may swallow an exception raised at any
            # point of the body, so the code after the block can run.
            entry.edges.append(Edge(after.index, forget=True))
        elif isinstance(stmt, ast.Assert):
            self._add_assert(stmt)
        elif isinstance(stmt, (ast.Return, ast.Raise)):
            self.current.statements.append(stmt)
            self.current = None
        elif isinstance(stmt, ast.Break):
            if self._loops:
                # Edge to the block after the innermost loop.
                after = self._loops[-1][1]
                self.current.edges.append(Edge(after))
            self.current = None
        elif isinstance(stmt, ast.Continue):
            if self._loops:
                head = self._loops[-1][0]
                self.current.edges.append(Edge(head))
            self.current = None
        else:
            self.current.statements.append(stmt)

    # -- structured statements -----------------------------------------
    def _add_if(self, stmt: ast.If) -> None:
        assert self.current is not None
        cond_block = self.current
        cond_block.statements.append(stmt)
        then_entry = self._start_block()
        self._link(cond_block, then_entry, stmt.test, True)
        self.add_body(stmt.body)
        then_exit = self.current

        if stmt.orelse:
            else_entry = self._start_block()
            self._link(cond_block, else_entry, stmt.test, False)
            self.add_body(stmt.orelse)
            else_exit = self.current
        else:
            else_entry = else_exit = None

        join = self._start_block()
        if then_exit is not None:
            self._link(then_exit, join)
        if else_exit is not None:
            self._link(else_exit, join)
        elif else_entry is None:
            self._link(cond_block, join, stmt.test, False)

    def _add_while(self, stmt: ast.While) -> None:
        assert self.current is not None
        before = self.current
        head = self._start_block()
        head.statements.append(stmt)
        self._link(before, head)
        self.cfg.loop_heads.add(head.index)

        after = self.cfg.new_block()
        self._loops.append((head.index, after.index))
        body_entry = self._start_block()
        self._link(head, body_entry, stmt.test, True)
        self.add_body(stmt.body)
        if self.current is not None:
            self._link(self.current, head)
        self._loops.pop()

        self._link(head, after, stmt.test, False)
        if stmt.orelse:
            # ``else`` runs on normal exit; model it between head and after.
            else_entry = self._start_block()
            self._link(head, else_entry, stmt.test, False)
            self.add_body(stmt.orelse)
            if self.current is not None:
                self._link(self.current, after)
        self.current = after

    def _add_for(self, stmt: ast.For | ast.AsyncFor) -> None:
        assert self.current is not None
        before = self.current
        head = self._start_block()
        # The For node itself sits in the header: the engine's transfer
        # function forgets the loop target there.  If, While and Assert
        # nodes in statement position are markers only — their effect
        # lives on the outgoing guarded edges.
        head.statements.append(stmt)
        self._link(before, head)
        self.cfg.loop_heads.add(head.index)

        after = self.cfg.new_block()
        self._loops.append((head.index, after.index))
        body_entry = self._start_block()
        self._link(head, body_entry)
        self.add_body(stmt.body)
        if self.current is not None:
            self._link(self.current, head)
        self._loops.pop()

        self._link(head, after)
        if stmt.orelse:
            else_entry = self._start_block()
            self._link(head, else_entry)
            self.add_body(stmt.orelse)
            if self.current is not None:
                self._link(self.current, after)
        self.current = after

    def _add_try(self, stmt: ast.Try) -> None:
        assert self.current is not None
        before = self.current
        body_entry = self._start_block()
        self._link(before, body_entry)
        self.add_body(stmt.body)
        body_exit = self.current

        exits: list[Block] = []
        if body_exit is not None:
            if stmt.orelse:
                self.add_body(stmt.orelse)
                if self.current is not None:
                    exits.append(self.current)
            else:
                exits.append(body_exit)

        for handler in stmt.handlers:
            # A handler can be entered from any point of the body.
            handler_entry = self._start_block()
            before.edges.append(Edge(handler_entry.index, forget=True))
            self.add_body(handler.body)
            if self.current is not None:
                exits.append(self.current)

        join = self._start_block()
        for block in exits:
            self._link(block, join)
        if stmt.finalbody:
            # The finally body runs from any point of the body or a handler.
            before.edges.append(Edge(join.index, forget=True))
            self.add_body(stmt.finalbody)
        if not exits:
            self.current = None

    def _add_assert(self, stmt: ast.Assert) -> None:
        assert self.current is not None
        cond_block = self.current
        cond_block.statements.append(stmt)
        ok = self._start_block()
        self._link(cond_block, ok, stmt.test, True)


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> ControlFlowGraph:
    """Build the CFG for one function definition's body."""
    builder = _Builder()
    builder.add_body(func.body)
    return builder.cfg
