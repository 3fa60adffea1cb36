"""Whole-program view: function collection, call resolution, summaries.

A :class:`Program` indexes every function/method in the analyzed file
set by qualified name (``<module>.<Class>.<method>``) and computes one
:class:`~repro.sanitize.flow.taint.Summary` per function so the taint
rule can follow values across call boundaries: a helper that returns
``time.perf_counter()`` taints its callers' variables, and a helper
that forwards an argument into ``.put(...)`` turns every call site into
a sink.

Call resolution is deliberately conservative:

* ``name(...)`` — a function defined in the same module wins; otherwise
  the name is matched against the whole program only when exactly one
  function carries it.
* ``self.m(...)`` / ``cls.m(...)`` — resolved inside the enclosing
  class when it defines ``m``.
* ``obj.m(...)`` — matched program-wide only when exactly one function
  is named ``m`` (unknown attribute calls otherwise fall back to
  "union of argument taints", which keeps the analysis sound-ish
  without exploding on stdlib calls).

Summaries are computed to a fixpoint with a reverse-dependency
worklist: when a callee's summary grows, only its callers re-run.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import PurePath
from typing import Iterable

from ..simlint import _Imports
from .cfg import CFG, build_cfg, stmt_has_yield
from .taint import EMPTY_SUMMARY, FunctionTaint, Summary

__all__ = ["FunctionInfo", "Program", "build_program", "compute_summaries"]


@dataclass(slots=True)
class FunctionInfo:
    """One analyzed function/method with its lazily-built CFG."""

    qualname: str
    name: str
    module: str
    class_name: str | None
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    imports: _Imports
    params: list[str]
    is_generator: bool
    _cfg: CFG | None = field(default=None, repr=False)

    def ensure_cfg(self) -> CFG:
        if self._cfg is None:
            self._cfg = build_cfg(self.node)
        return self._cfg


class Program:
    """Functions of the analyzed tree, indexed for call resolution."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.by_name: dict[str, list[str]] = {}
        self.by_path: dict[str, list[str]] = {}
        self.summaries: dict[str, Summary] = {}

    def add(self, info: FunctionInfo) -> None:
        self.functions[info.qualname] = info
        self.by_name.setdefault(info.name, []).append(info.qualname)
        self.by_path.setdefault(info.path, []).append(info.qualname)

    def functions_in(self, path: str) -> list[FunctionInfo]:
        return [self.functions[q] for q in self.by_path.get(path, ())]

    def resolve_call(self, caller: FunctionInfo, func: ast.expr) -> list[str]:
        """Qualified names a call expression may target ([] = unknown)."""
        if isinstance(func, ast.Name):
            local = f"{caller.module}.{func.id}"
            if local in self.functions:
                return [local]
            if caller.class_name is not None:
                # Nested helper defined inside a method of the class.
                nested = f"{caller.module}.{caller.class_name}.{func.id}"
                if nested in self.functions:
                    return [nested]
            candidates = self.by_name.get(func.id, [])
            return candidates if len(candidates) == 1 else []
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
                and caller.class_name is not None
            ):
                method = f"{caller.module}.{caller.class_name}.{func.attr}"
                if method in self.functions:
                    return [method]
                return []
            candidates = self.by_name.get(func.attr, [])
            return candidates if len(candidates) == 1 else []
        return []


def _params_of(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = node.args
    return [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]


def _collect(
    program: Program,
    body: list[ast.stmt],
    *,
    module: str,
    path: str,
    imports: _Imports,
    prefix: str,
    class_name: str | None,
) -> None:
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}.{stmt.name}"
            program.add(
                FunctionInfo(
                    qualname=qualname,
                    name=stmt.name,
                    module=module,
                    class_name=class_name,
                    path=path,
                    node=stmt,
                    imports=imports,
                    params=_params_of(stmt),
                    is_generator=any(stmt_has_yield(s) for s in stmt.body),
                )
            )
            _collect(
                program, stmt.body,
                module=module, path=path, imports=imports,
                prefix=qualname, class_name=class_name,
            )
        elif isinstance(stmt, ast.ClassDef):
            _collect(
                program, stmt.body,
                module=module, path=path, imports=imports,
                prefix=f"{prefix}.{stmt.name}", class_name=stmt.name,
            )


def build_program(sources: Iterable[tuple[str, str]]) -> Program:
    """Build a :class:`Program` from ``(path, source)`` pairs.

    Files that fail to parse are skipped (``lint_source`` reports them
    per file as SL000).
    """
    program = Program()
    for path, source in sources:
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue
        imports = _Imports()
        imports.visit(tree)
        module = PurePath(path).stem
        _collect(
            program, tree.body,
            module=module, path=path, imports=imports,
            prefix=module, class_name=None,
        )
    return program


def compute_summaries(program: Program) -> None:
    """Fixpoint of per-function summaries over the call graph.

    Starts every function in the worklist; when a summary changes, the
    function's known callers are requeued.  Summaries only grow (unions
    over finite taint sets), so this terminates; a step budget of 20
    per function is a defensive backstop.
    """
    callers: dict[str, set[str]] = {}
    work: deque[str] = deque(program.functions)
    queued = set(work)
    budget = 20 * max(len(queued), 1)
    steps = 0
    while work:
        steps += 1
        if steps > budget:  # pragma: no cover - defensive backstop
            break
        qualname = work.popleft()
        queued.discard(qualname)
        info = program.functions[qualname]
        summary, callees = FunctionTaint(info, program).summarize()
        for callee in callees:
            callers.setdefault(callee, set()).add(qualname)
        if summary != program.summaries.get(qualname, EMPTY_SUMMARY):
            program.summaries[qualname] = summary
            for caller in callers.get(qualname, ()):
                if caller not in queued:
                    queued.add(caller)
                    work.append(caller)
