"""simlint: determinism and lifecycle static analysis for the DES stack.

Every figure in this reproduction rests on the claim that the
discrete-event kernel is deterministic and leak-free.  One stray
``time.time()``, an unseeded global ``random`` call, or iteration over a
``set`` feeding a scheduling decision silently corrupts overhead
measurements the same way noisy co-located monitors corrupt real Summit
runs — the run still *completes*, the numbers are just wrong.  simlint
walks the source with the stdlib :mod:`ast` (no third-party
dependencies) and flags the hazard classes we have actually been bitten
by, so the property is enforced instead of assumed.  The SL100+ family
runs on the CFG/dataflow engine in :mod:`repro.sanitize.flow`: it flags
a nondeterministic value only where it reaches the kernel, and proves
lifecycle and interrupt handling per path.

Rules
-----

========  ===================  ====================================================
id        name                 flags
========  ===================  ====================================================
SL000     bad-suppression      a suppression without a reason or naming an unknown
                               rule; a file that does not parse
SL002     real-sleep           ``time.sleep`` — blocks the host, not the sim clock
SL009     orphan-event         a local ``env.event()`` that is yielded but never
                               triggered and never escapes — the process parks forever
SL010     dropped-event        ``env.timeout(...)``/``env.event()`` whose result is
                               discarded — schedules (or allocates) an event nobody
                               can ever consume
SL100     taint-to-sink        a wall-clock/RNG/entropy/``id()``/``hash()``/set-order
                               value that reaches a delay, payload, or priority,
                               possibly through helpers in other files
SL101     leaked-request       a ``.request()`` not released on some path to exit
SL102     stale-shared-write   a shared value read before a ``yield`` and written
                               back after it (lost update)
SL103     swallowed-interrupt  a broad ``except`` around a ``yield`` on which some
                               path neither re-raises nor returns
========  ===================  ====================================================

Retired ids stay valid in suppressions and resolve to their replacement:
SL001/SL003–SL007 (wall-clock, global-random, nondet-entropy,
set-iteration, id-ordering, hash-ordering) → SL100; SL008
(swallow-interrupt) → SL103; SL011 (raw-request) → SL101.

Suppressions
------------

A finding is suppressed by an inline comment **on the flagged line**::

    yield env.timeout(jitter)  # simlint: disable=taint-to-sink(host-side replay, not sim state)

The rule may be named by id (``SL100``) or name (``taint-to-sink``),
several suppressions may be comma-separated, and the parenthesized
justification is *mandatory* — a suppression without a reason, or
naming an unknown rule, is itself a finding (SL000 ``bad-suppression``).
Justifications must not contain ``)``.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import sys
import tokenize
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = [
    "Rule",
    "Finding",
    "Report",
    "RULES",
    "lint_source",
    "lint_file",
    "lint_paths",
    "main",
]


@dataclass(frozen=True, slots=True)
class Rule:
    """One hazard class simlint detects."""

    id: str
    name: str
    summary: str
    rationale: str


_RULE_LIST = [
    Rule(
        "SL000",
        "bad-suppression",
        "malformed simlint suppression",
        "a suppression without a written justification (or naming an "
        "unknown rule) silently disables enforcement — the reason string "
        "is the audit trail",
    ),
    Rule(
        "SL002",
        "real-sleep",
        "time.sleep() in simulated code",
        "sleeping blocks the host thread without advancing the sim "
        "clock; use env.timeout(delay)",
    ),
    Rule(
        "SL009",
        "orphan-event",
        "event yielded but never triggerable",
        "a local env.event() that never escapes and is never "
        "succeeded/failed parks its process forever (deadlock)",
    ),
    Rule(
        "SL010",
        "dropped-event",
        "event created and immediately discarded",
        "a discarded env.timeout() still occupies the heap until it "
        "fires with no waiter; a discarded env.event() can never fire — "
        "both are lifecycle leaks",
    ),
    # -- flow-sensitive family (implemented in repro.sanitize.flow.rules
    # on the CFG/dataflow engine) ----------------------------------------
    Rule(
        "SL100",
        "taint-to-sink",
        "nondeterministic value reaches a scheduling sink",
        "a wall-clock/RNG/entropy/ordering value that flows (possibly "
        "through helpers) into a delay, payload, or priority makes the "
        "schedule differ run to run; occurrences that never reach the "
        "kernel are harmless and are not flagged",
    ),
    Rule(
        "SL101",
        "leaked-request",
        "request not released on some path",
        "a .request() held at function exit on any normal-completion "
        "path pins the resource slot; the check follows the CFG, so "
        "functions that release on every real path are clean",
    ),
    Rule(
        "SL102",
        "stale-shared-write",
        "shared value written back stale across a yield",
        "a value read before a yield and written back after it "
        "overwrites any update a concurrent process made during the "
        "suspension — the static twin of the runtime lost-update "
        "sanitizer",
    ),
    Rule(
        "SL103",
        "swallowed-interrupt",
        "broad except path swallows Interrupt",
        "only flagged when some handler path neither re-raises nor "
        "returns; `if isinstance(e, Interrupt): raise` followed by "
        "recovery code is proven clean",
    ),
]

#: All rules, keyed by id.  Rule *names* resolve through :func:`_rule_for`.
RULES: dict[str, Rule] = {rule.id: rule for rule in _RULE_LIST}
_RULES_BY_NAME: dict[str, Rule] = {rule.name: rule for rule in _RULE_LIST}

#: Retired rule ids and names -> the flow rule that replaced them, so
#: suppressions written against the old rules keep working.
_RETIRED = {
    **dict.fromkeys(
        (
            "SL001", "wall-clock", "SL003", "global-random",
            "SL004", "nondet-entropy", "SL005", "set-iteration",
            "SL006", "id-ordering", "SL007", "hash-ordering",
        ),
        "SL100",
    ),
    "SL008": "SL103",
    "swallow-interrupt": "SL103",
    "SL011": "SL101",
    "raw-request": "SL101",
}


def _rule_for(token: str) -> Rule | None:
    token = _RETIRED.get(token, token)
    return RULES.get(token) or _RULES_BY_NAME.get(token)


@dataclass(slots=True)
class Finding:
    """One flagged source location."""

    rule: Rule
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    justification: str | None = None

    def format(self) -> str:
        text = (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.rule.id}[{self.rule.name}] {self.message}"
        )
        if self.suppressed:
            text += f"  (suppressed: {self.justification})"
        return text

    def to_dict(self) -> dict:
        return {
            "rule": self.rule.id,
            "name": self.rule.name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
            "justification": self.justification,
        }


# --------------------------------------------------------------------------
# suppressions


_DISABLE_RE = re.compile(r"#\s*simlint:\s*disable=(?P<items>.*)$")
_ITEM_RE = re.compile(r"([A-Za-z0-9_-]+)\s*\(([^)]*)\)")


def _iter_comments(source: str) -> Iterator[tuple[int, int, str]]:
    """(line, col, text) of every real comment token (not string contents)."""
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.start[1], token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return  # unparseable files are reported via ast.parse


def _parse_suppressions(
    source: str, path: str
) -> tuple[dict[int, dict[str, str]], list[Finding]]:
    """Map line -> {rule id -> justification}; malformed ones become findings."""
    by_line: dict[int, dict[str, str]] = {}
    findings: list[Finding] = []
    for lineno, col, text in _iter_comments(source):
        match = _DISABLE_RE.search(text)
        if match is None:
            continue
        items = match.group("items").strip()
        consumed = 0
        entry: dict[str, str] = {}
        for item in _ITEM_RE.finditer(items):
            consumed += 1
            token, reason = item.group(1), item.group(2).strip()
            rule = _rule_for(token)
            if rule is None:
                findings.append(
                    Finding(
                        RULES["SL000"],
                        path,
                        lineno,
                        col,
                        f"suppression names unknown rule {token!r}",
                    )
                )
                continue
            if not reason:
                findings.append(
                    Finding(
                        RULES["SL000"],
                        path,
                        lineno,
                        col,
                        f"suppression of {rule.name} carries no justification",
                    )
                )
                continue
            entry[rule.id] = reason
        if consumed == 0:
            findings.append(
                Finding(
                    RULES["SL000"],
                    path,
                    lineno,
                    col,
                    "suppression must be `disable=RULE(reason)`",
                )
            )
        if entry:
            by_line[lineno] = entry
    return by_line, findings


# --------------------------------------------------------------------------
# name resolution


class _Imports(ast.NodeVisitor):
    """Resolve local names to dotted module paths."""

    def __init__(self) -> None:
        #: local alias -> module path (``import numpy as np`` -> np: numpy)
        self.aliases: dict[str, str] = {}
        #: local name -> dotted member (``from time import time`` ->
        #: time: time.time; ``from datetime import datetime`` ->
        #: datetime: datetime.datetime)
        self.members: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports are in-repo: never stdlib hazards
        for alias in node.names:
            self.members[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.expr) -> str | None:
        """Dotted path of an attribute/name chain, or None."""
        if isinstance(node, ast.Name):
            return self.members.get(node.id) or self.aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None


def _walk_same_function(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a subtree without descending into nested function/class defs."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _contains_yield(node: ast.AST) -> bool:
    return any(
        isinstance(child, (ast.Yield, ast.YieldFrom))
        for child in _walk_same_function(node)
    )


def _body_contains_yield(stmts: Iterable[ast.stmt]) -> bool:
    for stmt in stmts:
        if isinstance(stmt, (ast.Yield, ast.YieldFrom)):
            return True
        if _contains_yield(stmt):
            return True
    return False


# --------------------------------------------------------------------------
# the linter


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, imports: _Imports) -> None:
        self.path = path
        self.imports = imports
        self.findings: list[Finding] = []

    # -- helpers -------------------------------------------------------

    def _flag(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                RULES[rule_id],
                self.path,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0),
                message,
            )
        )

    # -- SL002: real sleep -----------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if self.imports.resolve(node.func) == "time.sleep":
            self._flag(
                "SL002",
                node,
                "time.sleep() blocks the host; yield env.timeout(delay)",
            )
        self.generic_visit(node)

    # -- functions -------------------------------------------------------

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if _body_contains_yield(node.body):
            self._check_generator_lifecycles(node)
        self.generic_visit(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- SL009/SL010: event lifecycle rules (per generator function) ------

    def _check_generator_lifecycles(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        # Locals assigned from `<x>.event()`.
        events: set[str] = set()
        for child in _walk_same_function(func):
            if (
                isinstance(child, ast.Assign)
                and len(child.targets) == 1
                and isinstance(child.targets[0], ast.Name)
                and isinstance(child.value, ast.Call)
                and isinstance(child.value.func, ast.Attribute)
                and child.value.func.attr == "event"
                and not child.value.args
                and not child.value.keywords
            ):
                events.add(child.targets[0].id)

        yields: dict[str, ast.AST] = {}
        for child in _walk_same_function(func):
            if (
                isinstance(child, (ast.Yield, ast.YieldFrom))
                and isinstance(child.value, ast.Name)
                and child.value.id in events
            ):
                yields.setdefault(child.value.id, child)
        # An event is an orphan when the assignment target and the yielded
        # reference are its only Name occurrences (2 uses).
        for name, node in yields.items():
            uses = sum(
                1
                for child in _walk_same_function(func)
                if isinstance(child, ast.Name) and child.id == name
            )
            if uses <= 2:
                self._flag(
                    "SL009",
                    node,
                    f"event {name!r} is yielded but never triggered and "
                    "never escapes — this process can never resume",
                )

        # SL010: expression statements discarding a fresh event.
        for child in _walk_same_function(func):
            if (
                isinstance(child, ast.Expr)
                and isinstance(child.value, ast.Call)
                and isinstance(child.value.func, ast.Attribute)
                and child.value.func.attr in ("timeout", "event")
            ):
                self._flag(
                    "SL010",
                    child,
                    f"result of .{child.value.func.attr}() is discarded — the "
                    "event is scheduled (or created) with no possible consumer",
                )


# --------------------------------------------------------------------------
# public API


def lint_source(source: str, path: str = "<string>", *, program=None) -> list[Finding]:
    """Lint one source string; returns all findings, suppressed ones marked.

    ``program`` may carry a pre-built whole-tree
    :class:`repro.sanitize.flow.summaries.Program` so taint follows calls
    across files (built from this file alone when omitted).
    """
    # Imported lazily: flow builds on this module.
    from .flow.rules import flow_findings
    from .flow.summaries import build_program, compute_summaries

    suppressions, findings = _parse_suppressions(source, path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        findings.append(
            Finding(
                RULES["SL000"],
                path,
                exc.lineno or 1,
                (exc.offset or 1) - 1,
                f"file does not parse: {exc.msg}",
            )
        )
        return findings
    imports = _Imports()
    imports.visit(tree)
    linter = _Linter(path, imports)
    linter.visit(tree)
    findings.extend(linter.findings)
    if program is None:
        program = build_program([(path, source)])
        compute_summaries(program)
    flow_findings(
        program,
        path,
        lambda rule_id, line, col, message: findings.append(
            Finding(RULES[rule_id], path, line, col, message)
        ),
    )
    for finding in findings:
        if finding.rule.id == "SL000":
            continue  # suppression hygiene findings cannot be suppressed
        reason = suppressions.get(finding.line, {}).get(finding.rule.id)
        if reason is not None:
            finding.suppressed = True
            finding.justification = reason
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule.id))
    return findings


def lint_file(path: str, *, program=None) -> list[Finding]:
    with open(path, encoding="utf-8") as handle:
        return lint_source(handle.read(), path, program=program)


def _iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


@dataclass(slots=True)
class Report:
    """Aggregate result of linting a file tree."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def unsuppressed(self) -> list[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    def format_text(self, show_suppressed: bool = False) -> str:
        lines = [f.format() for f in self.unsuppressed]
        if show_suppressed:
            lines.extend(f.format() for f in self.suppressed)
        lines.append(
            f"simlint: {self.files_scanned} files, "
            f"{len(self.unsuppressed)} findings, "
            f"{len(self.suppressed)} suppressed"
        )
        return "\n".join(lines)

    def format_json(self) -> str:
        return json.dumps(
            {
                "files_scanned": self.files_scanned,
                "findings": [f.to_dict() for f in self.findings],
            },
            indent=2,
        )


def lint_paths(paths: Iterable[str]) -> Report:
    """Lint every ``.py`` file under ``paths`` (files or directories).

    The whole file set is parsed into one program first so
    interprocedural summaries span files, then each file is linted
    against it.
    """
    from .flow.summaries import build_program, compute_summaries

    sources = []
    for path in _iter_python_files(paths):
        with open(path, encoding="utf-8") as handle:
            sources.append((path, handle.read()))
    program = build_program(sources)
    compute_summaries(program)
    report = Report(files_scanned=len(sources))
    for path, source in sources:
        report.findings.extend(lint_source(source, path, program=program))
    return report


def main(
    paths: Iterable[str],
    fmt: str = "text",
    show_suppressed: bool = False,
    stream=None,
) -> int:
    """Entry point behind ``python -m repro lint``; returns the exit code."""
    if stream is None:
        stream = sys.stdout
    report = lint_paths(paths)
    if fmt == "json":
        print(report.format_json(), file=stream)
    else:
        print(report.format_text(show_suppressed=show_suppressed), file=stream)
    return 1 if report.unsuppressed else 0
