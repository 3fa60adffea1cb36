"""Intraprocedural control-flow graphs over Python ``ast``.

Looking at *what* a function mentions is not enough to say *where*
control can actually go.  The flow rules (SL100+) need real paths — "is there an execution on which this ``request()`` is
never released?" — so this module lowers one function body to a small
CFG the worklist solver (:mod:`.solver`) can iterate.

Design notes
------------

* **One node per simple statement.**  Compound statements contribute
  synthetic nodes: ``cond`` for ``if``/``while`` tests, ``loop`` for
  ``for`` headers, ``except`` for handler entries, ``final`` for
  ``finally`` entries, ``with``/``withexit`` for context enter/exit.
* **``yield`` is a first-class node kind.**  Every yield is a kernel
  scheduling point: the process parks, arbitrary simulated time passes,
  and the kernel may *throw* (``Interrupt``) instead of resuming — so a
  yield node gets an exception edge to the innermost handler (or the
  abnormal ``raise`` exit) in addition to its normal successor.
* **``finally``/``with`` cleanup blocks are built once** and every
  abrupt exit (return / break / continue / raise / yield-interrupt)
  is threaded *through* them.  Because the block is shared, its exit
  fans out to the union of continuations — paths merge at cleanups.
  That loses pairing precision (a classic CFG trade-off) but is sound
  for the may-analyses built on top: no real path is missing.
* **Exception edges are deliberately selective.**  Arbitrary statements
  get an ``exc`` edge only while a ``try``/``except`` is active (the
  handler path is then analyzable); yields and explicit ``raise``
  always get one.  Giving *every* statement an implicit edge to the
  abnormal exit would make "released on all paths" unprovable for any
  non-trivial function and drown the lifecycle rule in noise.

Node labels are stable strings (``kind@line``) so tests can assert a
whole edge set against a hand-drawn graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = ["Node", "CFG", "build_cfg", "iter_same_function", "stmt_has_yield"]

#: Statement/synthetic node kinds a CFG can contain.
KINDS = (
    "entry", "exit", "raise", "stmt", "yield", "cond", "loop",
    "except", "final", "with", "withexit",
)


def iter_same_function(node: ast.AST) -> Iterator[ast.AST]:
    """Child walk that does not descend into nested defs, lambdas or classes."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(
            child,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def stmt_has_yield(stmt: ast.stmt) -> bool:
    """True if this (simple) statement suspends the generator."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return False  # a nested def's yields suspend *that* function
    if isinstance(stmt, (ast.Yield, ast.YieldFrom)):
        return True
    return any(
        isinstance(child, (ast.Yield, ast.YieldFrom))
        for child in iter_same_function(stmt)
    )


@dataclass(slots=True)
class Node:
    """One CFG vertex: a simple statement or a synthetic control point."""

    index: int
    kind: str
    line: int = 0
    stmt: ast.AST | None = None

    @property
    def label(self) -> str:
        if self.kind in ("entry", "exit", "raise"):
            return self.kind
        return f"{self.kind}@{self.line}"


@dataclass(slots=True)
class CFG:
    """Control-flow graph of one function body."""

    name: str
    nodes: list[Node]
    succ: dict[int, list[tuple[int, str]]]
    pred: dict[int, list[tuple[int, str]]]
    entry: int
    exit: int
    raise_exit: int

    def edges(self) -> set[tuple[str, str, str]]:
        """``{(src_label, dst_label, kind)}`` — for hand-drawn assertions."""
        out = set()
        for src, targets in self.succ.items():
            for dst, kind in targets:
                out.add((self.nodes[src].label, self.nodes[dst].label, kind))
        return out

    def node(self, index: int) -> Node:
        return self.nodes[index]


@dataclass(slots=True)
class _Cleanup:
    """A finally/with-exit block jumps must thread through."""

    entry: int
    frontier: list[tuple[int, str]]


@dataclass(slots=True)
class _Loop:
    depth: int  # cleanup-stack depth at loop entry
    continue_target: int
    breaks: list[tuple[int, str]] = field(init=False, default_factory=list)


@dataclass(slots=True)
class _TryCtx:
    handlers: list[int]  # handler entry node indices
    depth: int  # cleanup-stack depth when the handlers became active


class _Builder:
    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.func = func
        self.nodes: list[Node] = []
        self._edges: set[tuple[int, int, str]] = set()
        self.entry = self._new("entry")
        self.exit = self._new("exit")
        self.raise_exit = self._new("raise")
        self.cleanups: list[_Cleanup] = []
        self.loops: list[_Loop] = []
        self.tries: list[_TryCtx] = []

    # -- plumbing ------------------------------------------------------

    def _new(self, kind: str, line: int = 0, stmt: ast.AST | None = None) -> int:
        node = Node(len(self.nodes), kind, line, stmt)
        self.nodes.append(node)
        return node.index

    def _edge(self, src: int, dst: int, kind: str) -> None:
        self._edges.add((src, dst, kind))

    def _connect(self, frontier: Iterable[tuple[int, str]], target: int) -> None:
        for node, kind in frontier:
            self._edge(node, target, kind)

    def _thread(self, src: int, kind: str, depth: int) -> list[tuple[int, str]]:
        """Route a jump from ``src`` through cleanups below ``depth``.

        Returns the dangling frontier after the outermost threaded
        cleanup (or just ``src`` when none intervene).
        """
        frontier = [(src, kind)]
        for cleanup in reversed(self.cleanups[depth:]):
            for node, _k in frontier:
                self._edge(node, cleanup.entry, kind)
            frontier = [(node, kind) for node, _k in cleanup.frontier]
        return frontier

    def _route(self, src: int, kind: str, target: int, depth: int) -> None:
        for node, k in self._thread(src, kind, depth):
            self._edge(node, target, k)

    def _exc_edges(self, node: int, always: bool) -> None:
        """Exception edge policy (see module docstring)."""
        if self.tries:
            ctx = self.tries[-1]
            for handler in ctx.handlers:
                self._route(node, "exc", handler, ctx.depth)
        elif always:
            self._route(node, "exc", self.raise_exit, 0)

    # -- statement dispatch -------------------------------------------

    def build(self) -> CFG:
        frontier = self._stmts(self.func.body, [(self.entry, "next")])
        self._connect(frontier, self.exit)
        succ: dict[int, list[tuple[int, str]]] = {}
        pred: dict[int, list[tuple[int, str]]] = {}
        for src, dst, kind in sorted(self._edges):
            succ.setdefault(src, []).append((dst, kind))
            pred.setdefault(dst, []).append((src, kind))
        return CFG(
            self.func.name, self.nodes, succ, pred,
            self.entry, self.exit, self.raise_exit,
        )

    def _stmts(
        self, stmts: Iterable[ast.stmt], frontier: list[tuple[int, str]]
    ) -> list[tuple[int, str]]:
        for stmt in stmts:
            frontier = self._stmt(stmt, frontier)
        return frontier

    def _stmt(
        self, stmt: ast.stmt, frontier: list[tuple[int, str]]
    ) -> list[tuple[int, str]]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier)
        if isinstance(stmt, ast.While):
            return self._while(stmt, frontier)
        if isinstance(stmt, ast.For) or isinstance(stmt, ast.AsyncFor):
            return self._for(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier)
        if isinstance(stmt, ast.Return):
            node = self._simple_node(stmt, frontier)
            self._route(node, "return", self.exit, 0)
            return []
        if isinstance(stmt, ast.Raise):
            node = self._simple_node(stmt, frontier)
            if self.tries:
                ctx = self.tries[-1]
                for handler in ctx.handlers:
                    self._route(node, "raise", handler, ctx.depth)
            else:
                self._route(node, "raise", self.raise_exit, 0)
            return []
        if isinstance(stmt, ast.Break):
            node = self._simple_node(stmt, frontier)
            if self.loops:
                loop = self.loops[-1]
                loop.breaks.extend(self._thread(node, "break", loop.depth))
            return []
        if isinstance(stmt, ast.Continue):
            node = self._simple_node(stmt, frontier)
            if self.loops:
                loop = self.loops[-1]
                self._route(node, "continue", loop.continue_target, loop.depth)
            return []
        if hasattr(ast, "Match") and isinstance(stmt, ast.Match):
            return self._match(stmt, frontier)
        # Everything else — Assign, Expr, Assert, Pass, nested defs, … —
        # is a single sequential node.
        node = self._simple_node(stmt, frontier)
        return [(node, "next")]

    def _simple_node(
        self, stmt: ast.stmt, frontier: list[tuple[int, str]]
    ) -> int:
        kind = "yield" if stmt_has_yield(stmt) else "stmt"
        node = self._new(kind, stmt.lineno, stmt)
        self._connect(frontier, node)
        # A parked generator can be thrown into (Interrupt); plain
        # statements only matter exception-wise inside an active try.
        self._exc_edges(node, always=(kind == "yield"))
        return node

    # -- compound statements ------------------------------------------

    def _if(self, stmt: ast.If, frontier) -> list[tuple[int, str]]:
        cond = self._new("cond", stmt.lineno, stmt)
        self._connect(frontier, cond)
        self._exc_edges(cond, always=False)
        out = self._stmts(stmt.body, [(cond, "true")])
        if stmt.orelse:
            out = out + self._stmts(stmt.orelse, [(cond, "false")])
        else:
            out = out + [(cond, "false")]
        return out

    def _while(self, stmt: ast.While, frontier) -> list[tuple[int, str]]:
        cond = self._new("cond", stmt.lineno, stmt)
        self._connect(frontier, cond)
        self._exc_edges(cond, always=False)
        loop = _Loop(len(self.cleanups), cond)
        self.loops.append(loop)
        body = self._stmts(stmt.body, [(cond, "true")])
        for node, _k in body:
            self._edge(node, cond, "back")
        self.loops.pop()
        out: list[tuple[int, str]] = []
        infinite = isinstance(stmt.test, ast.Constant) and bool(stmt.test.value)
        if not infinite:
            # `while x:`-style loops fall through when the test fails;
            # the else clause runs exactly then (skipped by break).
            if stmt.orelse:
                out.extend(self._stmts(stmt.orelse, [(cond, "false")]))
            else:
                out.append((cond, "false"))
        out.extend(loop.breaks)
        return out

    def _for(self, stmt, frontier) -> list[tuple[int, str]]:
        head = self._new("loop", stmt.lineno, stmt)
        self._connect(frontier, head)
        self._exc_edges(head, always=False)
        loop = _Loop(len(self.cleanups), head)
        self.loops.append(loop)
        body = self._stmts(stmt.body, [(head, "true")])
        for node, _k in body:
            self._edge(node, head, "back")
        self.loops.pop()
        out: list[tuple[int, str]] = []
        if stmt.orelse:
            out.extend(self._stmts(stmt.orelse, [(head, "false")]))
        else:
            out.append((head, "false"))
        out.extend(loop.breaks)
        return out

    def _try(self, stmt: ast.Try, frontier) -> list[tuple[int, str]]:
        cleanup: _Cleanup | None = None
        if stmt.finalbody:
            fentry = self._new("final", stmt.finalbody[0].lineno)
            # The block is built in the *outer* context: exceptions it
            # raises itself propagate past this try.
            ffrontier = self._stmts(stmt.finalbody, [(fentry, "next")])
            cleanup = _Cleanup(fentry, ffrontier)

        handler_nodes = [
            self._new("except", handler.lineno, handler)
            for handler in stmt.handlers
        ]
        if cleanup is not None:
            self.cleanups.append(cleanup)
        if handler_nodes:
            self.tries.append(_TryCtx(handler_nodes, len(self.cleanups)))
        body = self._stmts(stmt.body, frontier)
        if handler_nodes:
            self.tries.pop()
        if stmt.orelse:
            # else runs only on normal body completion, handlers inactive.
            body = self._stmts(stmt.orelse, body)

        out = list(body)
        for hnode, handler in zip(handler_nodes, stmt.handlers):
            # Handler bodies run with this try's handlers popped (an
            # exception inside a handler propagates outward) but with
            # the finally still pending.
            out.extend(self._stmts(handler.body, [(hnode, "next")]))

        if cleanup is not None:
            self.cleanups.pop()
            for node, kind in out:
                self._edge(node, cleanup.entry, kind)
            out = [(node, "next") for node, _k in cleanup.frontier]
        return out

    def _with(self, stmt, frontier) -> list[tuple[int, str]]:
        head = self._new("with", stmt.lineno, stmt)
        self._connect(frontier, head)
        self._exc_edges(head, always=False)
        wexit = self._new("withexit", stmt.lineno)
        cleanup = _Cleanup(wexit, [(wexit, "next")])
        self.cleanups.append(cleanup)
        body = self._stmts(stmt.body, [(head, "next")])
        self.cleanups.pop()
        for node, kind in body:
            self._edge(node, wexit, kind)
        return [(wexit, "next")]

    def _match(self, stmt, frontier) -> list[tuple[int, str]]:
        head = self._new("cond", stmt.lineno, stmt)
        self._connect(frontier, head)
        self._exc_edges(head, always=False)
        out: list[tuple[int, str]] = [(head, "false")]
        for case in stmt.cases:
            out.extend(self._stmts(case.body, [(head, "true")]))
        return out


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Lower one function body to its control-flow graph."""
    return _Builder(func).build()
