"""Flow-sensitive rule family SL100+ on top of the CFG/solver/taint core.

Each checker receives a ``flag(rule_id, line, col, message)`` callback
and one :class:`~repro.sanitize.flow.summaries.FunctionInfo`; the
driver (:func:`flow_findings`) runs every checker over every function
of one file against a whole-:class:`Program` so the taint rule sees
across call boundaries.

Rules
-----

SL100 (``taint-to-sink``)
    A nondeterministic *source* value (wall-clock, unseeded RNG, OS
    entropy, ``id()``/``hash()``, set iteration order) reaches a
    *scheduling-relevant sink* (``.timeout``/``.succeed``/``.put``/
    ``.send``/``.request(priority=…)``/``heapq.heappush``), possibly
    through helper returns and arguments.

SL101 (``leaked-request``)
    A ``<res>.request()`` result that *some* normal-completion path
    never releases (no ``release()``/``cancel()``/``with``), tracked on
    the CFG.  Passing the request to another function or returning it
    transfers ownership and ends tracking (we under-report rather than
    guess).

SL102 (``stale-shared-write``)
    A value read from a shared mapping, carried across a ``yield``
    (scheduling point), then written back: a concurrent writer's update
    during the suspension is silently overwritten.  The static twin of
    the runtime lost-update sanitizer.

SL103 (``swallowed-interrupt``)
    A broad ``except`` around a yield on which *some path* neither
    re-raises nor returns.  ``if isinstance(e, Interrupt): raise``
    followed by logging is clean (the surviving path is proven
    non-Interrupt).
"""

from __future__ import annotations

import ast
from types import SimpleNamespace
from typing import Callable

from .cfg import CFG, Node, build_cfg, iter_same_function, stmt_has_yield
from .solver import solve_forward
from .summaries import FunctionInfo, Program
from .taint import FunctionTaint, _dotted, _node_exprs, _walk_expr

__all__ = ["flow_findings"]

Flag = Callable[[str, int, int, str], None]


def flow_findings(program: Program, path: str, flag: Flag) -> None:
    """Run every flow checker over every function defined in ``path``."""
    for info in program.functions_in(path):
        FunctionTaint(info, program).report(
            lambda line, col, msg: flag("SL100", line, col, msg)
        )
        _check_lifecycle(info, flag)
        if info.is_generator:
            _check_stale_reads(info, flag)
        _check_interrupts(info, flag)


# --------------------------------------------------------------------------
# SL101: path-sensitive request lifecycle


def _check_lifecycle(info: FunctionInfo, flag: Flag) -> None:
    requests: dict[str, int] = {}
    for child in iter_same_function(info.node):
        if (
            isinstance(child, ast.Assign)
            and len(child.targets) == 1
            and isinstance(child.targets[0], ast.Name)
            and isinstance(child.value, ast.Call)
            and isinstance(child.value.func, ast.Attribute)
            and child.value.func.attr == "request"
        ):
            requests.setdefault(child.targets[0].id, child.value.lineno)
    if not requests:
        return

    names = set(requests)
    cfg = info.ensure_cfg()

    def transfer(node: Node, state: frozenset) -> frozenset:
        stmt = node.stmt
        if stmt is None:
            return state
        held = set(state)
        if node.kind == "with" and isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                ctx = item.context_expr
                if isinstance(ctx, ast.Name) and ctx.id in names:
                    held = {f for f in held if f[0] != ctx.id}  # __exit__ releases
                else:
                    released, escaped = _classify_uses([ctx], names)
                    held = {f for f in held if f[0] not in released | escaped}
                var = item.optional_vars
                if isinstance(var, ast.Name) and var.id in names:
                    held = {f for f in held if f[0] != var.id}
            return frozenset(held)
        exprs = _node_exprs(node)
        released, escaped = _classify_uses(exprs, names)
        held = {f for f in held if f[0] not in released | escaped}
        rebound = _bound_names(node)
        held = {f for f in held if f[0] not in rebound}
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr == "request"
        ):
            held.add((stmt.targets[0].id, stmt.value.lineno))
        return frozenset(held)

    states = solve_forward(
        cfg, init=frozenset(), transfer=transfer, join=lambda a, b: a | b
    )
    exit_state = states.get(cfg.exit)
    if not exit_state:
        return
    for name, line in sorted(exit_state):
        witness = _witness_line(cfg, states, transfer, (name, line))
        where = f" (e.g. via line {witness})" if witness else ""
        flag(
            "SL101",
            line,
            0,
            f"request {name!r} is not released on every path — a "
            f"normal-completion path{where} reaches function exit without "
            "release()/cancel()/`with`, pinning the resource slot",
        )


def _classify_uses(
    exprs: list[ast.expr], names: set[str]
) -> tuple[set[str], set[str]]:
    """Split tracked-name uses into (released, escaped).

    Benign uses — ``yield req``, attribute reads like ``req.triggered``,
    and the release call itself — keep tracking alive.  Any other
    occurrence (argument to a call, return value, container element,
    alias) transfers ownership: tracking stops without a finding.
    """
    benign: set[ast.AST] = set()  # AST nodes hash by identity
    released: set[str] = set()
    for expr in exprs:
        for sub in _walk_expr(expr):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                if sub.func.attr in ("release", "cancel"):
                    target = sub.func.value
                    if isinstance(target, ast.Name) and target.id in names:
                        released.add(target.id)
                        benign.add(target)
                    for arg in sub.args:
                        if isinstance(arg, ast.Name) and arg.id in names:
                            released.add(arg.id)
                            benign.add(arg)
            elif isinstance(sub, (ast.Yield, ast.YieldFrom)):
                if isinstance(sub.value, ast.Name) and sub.value.id in names:
                    benign.add(sub.value)
            elif isinstance(sub, ast.Attribute):
                if isinstance(sub.value, ast.Name) and sub.value.id in names:
                    benign.add(sub.value)
    escaped: set[str] = set()
    for expr in exprs:
        for sub in _walk_expr(expr):
            if (
                isinstance(sub, ast.Name)
                and sub.id in names
                and sub not in benign
            ):
                escaped.add(sub.id)
    return released, escaped


def _bound_names(node: Node) -> set[str]:
    stmt = node.stmt
    out: set[str] = set()

    def add_target(target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            out.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                add_target(elt)
        elif isinstance(target, ast.Starred):
            add_target(target.value)

    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            add_target(target)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        add_target(stmt.target)
    elif node.kind == "loop" and isinstance(stmt, (ast.For, ast.AsyncFor)):
        add_target(stmt.target)
    return out


def _witness_line(cfg: CFG, states, transfer, fact) -> int | None:
    """Line of an exit predecessor still holding ``fact`` (for the report)."""
    lines = []
    for pred, _kind in cfg.pred.get(cfg.exit, ()):
        if pred in states and fact in transfer(cfg.nodes[pred], states[pred]):
            line = cfg.nodes[pred].line
            if line:
                lines.append(line)
    return min(lines) if lines else None


# --------------------------------------------------------------------------
# SL102: stale read written back across a yield


def _key_repr(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Constant):
        return repr(expr.value)
    return _dotted(expr)


def _read_fact(stmt: ast.AST) -> tuple[str, str, str, int] | None:
    """Match ``v = m[k]`` / ``v = m.get(k, …)`` → (var, container, key, line)."""
    if not (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
    ):
        return None
    var = stmt.targets[0].id
    value = stmt.value
    if isinstance(value, ast.Subscript):
        container = _dotted(value.value)
        key = _key_repr(value.slice)
    elif (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and value.func.attr == "get"
        and value.args
    ):
        container = _dotted(value.func.value)
        key = _key_repr(value.args[0])
    else:
        return None
    if container is None or key is None:
        return None
    return (var, container, key, stmt.lineno)


_FRESH_CALLS = {"dict", "list", "set", "defaultdict", "Counter", "OrderedDict"}


def _local_containers(info: FunctionInfo) -> set[str]:
    """Names bound to containers created locally (no concurrent writer)."""
    fresh: set[str] = set()
    for child in iter_same_function(info.node):
        if not (
            isinstance(child, ast.Assign)
            and len(child.targets) == 1
            and isinstance(child.targets[0], ast.Name)
        ):
            continue
        value = child.value
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp)):
            fresh.add(child.targets[0].id)
        elif (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _FRESH_CALLS
        ):
            fresh.add(child.targets[0].id)
    return fresh


def _check_stale_reads(info: FunctionInfo, flag: Flag) -> None:
    local = _local_containers(info)
    tracked = False
    for child in iter_same_function(info.node):
        fact = _read_fact(child)
        if fact is not None and fact[1].split(".")[0] not in local:
            tracked = True
            break
    if not tracked:
        return

    cfg = info.ensure_cfg()

    def transfer(node: Node, state: frozenset) -> frozenset:
        stmt = node.stmt
        facts = set(state)
        if node.kind == "yield":
            facts = {(v, c, k, line, True) for (v, c, k, line, _s) in facts}
        if stmt is None:
            return frozenset(facts)
        bound = _bound_names(node)
        if bound:
            facts = {f for f in facts if f[0] not in bound}
        fact = _read_fact(stmt)
        if fact is not None and fact[1].split(".")[0] not in local:
            var, container, key, line = fact
            facts.add((var, container, key, line, False))
        for container, key in _subscript_writes(stmt):
            facts = {f for f in facts if (f[1], f[2]) != (container, key)}
        return frozenset(facts)

    states = solve_forward(
        cfg, init=frozenset(), transfer=transfer, join=lambda a, b: a | b
    )
    seen: set[tuple[int, str]] = set()
    for index, state in states.items():
        stmt = cfg.nodes[index].stmt
        if not isinstance(stmt, ast.Assign) or not state:
            continue
        for container, key in _subscript_writes(stmt):
            for sub in _walk_expr(stmt.value):
                if not isinstance(sub, ast.Name):
                    continue
                for (v, c, k, line, stale) in state:
                    if (
                        stale
                        and v == sub.id
                        and c == container
                        and k == key
                        and (stmt.lineno, v) not in seen
                    ):
                        seen.add((stmt.lineno, v))
                        flag(
                            "SL102",
                            stmt.lineno,
                            stmt.col_offset,
                            f"{v!r} read from {container}[{key}] at line "
                            f"{line} is written back after a yield — an "
                            "update made by another process during the "
                            "suspension is silently lost",
                        )


def _subscript_writes(stmt: ast.AST) -> list[tuple[str, str]]:
    out = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    else:
        return out
    for target in targets:
        if isinstance(target, ast.Subscript):
            container = _dotted(target.value)
            key = _key_repr(target.slice)
            if container is not None and key is not None:
                out.append((container, key))
    return out


# --------------------------------------------------------------------------
# SL103: path-sensitive Interrupt swallowing


def _check_interrupts(info: FunctionInfo, flag: Flag) -> None:
    for child in iter_same_function(info.node):
        if not isinstance(child, ast.Try):
            continue
        if not any(stmt_has_yield(stmt) for stmt in child.body):
            continue
        interrupt_seen = False
        for handler in child.handlers:
            if handler.type is not None and _catches(handler.type, {"Interrupt"}):
                interrupt_seen = True  # dedicated handler shadows later ones
                continue
            if interrupt_seen or not _is_broad(handler):
                continue
            if _handler_swallows(handler):
                flag(
                    "SL103",
                    handler.lineno,
                    handler.col_offset,
                    "broad except around a yield: some handler path neither "
                    "re-raises nor returns, so a kernel Interrupt delivered "
                    "at the yield is silently swallowed",
                )


def _catches(handler_type: ast.expr, names: set[str]) -> bool:
    """Does an except clause's type expression mention one of ``names``?"""
    types = (
        handler_type.elts if isinstance(handler_type, ast.Tuple) else [handler_type]
    )
    for type_expr in types:
        if isinstance(type_expr, ast.Name) and type_expr.id in names:
            return True
        if isinstance(type_expr, ast.Attribute) and type_expr.attr in names:
            return True
    return False


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True  # bare except catches everything
    return _catches(handler.type, {"Exception", "BaseException"})


def _handler_swallows(handler: ast.ExceptHandler) -> bool:
    """May a maybe-Interrupt exception fall out of this handler's body?

    Runs a tiny path-sensitive analysis over the handler body's CFG:
    the state is a one-token set ({"int?"} = the caught exception may
    still be an Interrupt).  ``isinstance`` tests on the bound name
    refine it per branch; raises leave via the abnormal exit; returns
    count as deliberate termination.  The handler swallows iff the
    token reaches the normal exit.
    """
    if not handler.body:
        return True
    # _Builder only touches .name/.body, so a namespace stands in for a
    # FunctionDef when lowering the handler body alone.
    shell = SimpleNamespace(name=f"except@{handler.lineno}", body=handler.body)
    cfg = build_cfg(shell)  # type: ignore[arg-type]
    exc_name = handler.name

    def edge_transfer(node: Node, out: frozenset, kind: str):
        if kind == "return":
            return None  # explicit termination — not a silent swallow
        if (
            exc_name is not None
            and node.kind == "cond"
            and isinstance(node.stmt, (ast.If, ast.While))
        ):
            polarity = _interrupt_test(node.stmt.test, exc_name)
            if polarity is True and kind == "false":
                return frozenset()  # proven not an Interrupt
            if polarity is False and kind == "true":
                return frozenset()
        return out

    states = solve_forward(
        cfg,
        init=frozenset({"int?"}),
        transfer=lambda node, state: state,
        join=lambda a, b: a | b,
        edge_transfer=edge_transfer,
    )
    exit_state = states.get(cfg.exit)
    return bool(exit_state and "int?" in exit_state)


def _interrupt_test(test: ast.expr, exc_name: str) -> bool | None:
    """Classify a branch test w.r.t. the caught exception.

    ``True``  — test passing means the exception *may be* an Interrupt
                (``isinstance(e, Interrupt)`` or a tuple including it);
                the false branch proves it is not.
    ``False`` — test passing proves it is *not* an Interrupt
                (``isinstance(e, ValueError)``, or a negated check).
    ``None``  — unrelated test; no refinement.
    """
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        inner = _interrupt_test(test.operand, exc_name)
        return None if inner is None else not inner
    if not (
        isinstance(test, ast.Call)
        and isinstance(test.func, ast.Name)
        and test.func.id == "isinstance"
        and len(test.args) == 2
        and isinstance(test.args[0], ast.Name)
        and test.args[0].id == exc_name
    ):
        return None
    classes = test.args[1]
    elts = classes.elts if isinstance(classes, ast.Tuple) else [classes]
    for elt in elts:
        if isinstance(elt, ast.Name) and elt.id == "Interrupt":
            return True
        if isinstance(elt, ast.Attribute) and elt.attr == "Interrupt":
            return True
    return False
