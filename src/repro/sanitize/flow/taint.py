"""Determinism-taint interpretation over one function's CFG.

This module flags a nondeterministic source only where its value
actually **reaches a scheduling-relevant sink** — an ``env.timeout``
delay, an event/message payload, a queue priority.  ``t0 = time.perf_counter()``
feeding a host-side benchmark report is clean; the same call feeding a
simulated delay is a reproducibility bug.

Taint facts
-----------

A :class:`Taint` is ``(kind, line, source)``.  Real kinds (reportable at
sinks): ``wall-clock``, ``global-random``, ``entropy``, ``id-order``,
``hash-order``, ``set-order``.  Two internal kinds thread the analysis:

* ``set-value`` — the value *is* a set.  Harmless by itself; it becomes
  ``set-order`` the moment something materializes its iteration order
  (``for x in s``, ``list(s)``, ``"".join(s)``).  Order-insensitive
  reducers (``sorted``/``len``/``sum``/``min``/``max``/``any``/``all``)
  erase both set kinds — ``sorted(some_set)`` is deterministic.
* ``param:<i>`` — symbolic taint of the i-th parameter, used when
  computing an interprocedural :class:`Summary`: "returns whatever its
  2nd argument was", "passes its 1st argument into a payload sink".

The same interpreter serves both passes: :meth:`FunctionTaint.summarize`
seeds parameters symbolically and extracts a summary;
:meth:`FunctionTaint.report` runs unseeded and emits SL100 findings,
applying callee summaries at resolved call sites so taint follows
helper returns and arguments across function boundaries.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable

from .cfg import Node
from .solver import solve_forward

__all__ = ["Taint", "Summary", "FunctionTaint", "REAL_KINDS", "EMPTY_SUMMARY"]


@dataclass(frozen=True, slots=True)
class Taint:
    kind: str
    line: int
    source: str


#: Kinds that constitute a finding when they reach a sink.
REAL_KINDS = {
    "wall-clock", "global-random", "entropy", "id-order", "hash-order",
    "set-order",
}

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

_ENTROPY = {"uuid.uuid1", "uuid.uuid4", "os.urandom", "os.getrandom"}

#: numpy.random members that *construct* seeded generators (allowed).
_NUMPY_RANDOM_OK = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}

_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}
_ORDER_INSENSITIVE = {"sorted", "len", "sum", "min", "max", "any", "all"}
_SET_CONSTRUCTORS = {"set", "frozenset"}
_ORDER_MATERIALIZERS = {"list", "tuple"}

#: Method-name sinks: attr -> human description of the sink.
SINK_METHODS = {
    "timeout": "a simulated delay",
    "succeed": "an event payload",
    "put": "a queue/store payload",
    "send": "a message payload",
    "request": "a scheduling priority",
    "schedule": "an event schedule",
}

#: Fully-resolved function sinks: dotted name -> description.
SINK_FUNCTIONS = {
    "heapq.heappush": "a heap scheduling key",
    "heapq.heappushpop": "a heap scheduling key",
}

_EMPTY: frozenset[Taint] = frozenset()


def _collapse(taints: frozenset[Taint]) -> frozenset[Taint]:
    """Keep one representative :class:`Taint` per kind.

    A finding needs *one* origin per nondeterminism kind; carrying every
    contributing source line through the interprocedural fixpoint makes
    the sets (and their unions) grow with the whole call graph.
    Collapsing bounds every taint set by the number of kinds, which is
    what makes the summary fixpoint converge quickly at tree scale.
    """
    if len(taints) <= 1:
        return taints
    best: dict[str, Taint] = {}
    for taint in taints:
        cur = best.get(taint.kind)
        if cur is None or (taint.line, taint.source) < (cur.line, cur.source):
            best[taint.kind] = taint
    if len(best) == len(taints):
        return taints
    return frozenset(best.values())


@dataclass(frozen=True, slots=True)
class Summary:
    """Interprocedural facts about one function."""

    returns: frozenset[Taint]          # source taint minted inside, escaping via return
    param_returns: frozenset[int]      # params whose taint flows to the return value
    sink_params: frozenset[tuple[int, str]]  # (param index, sink description)


EMPTY_SUMMARY = Summary(_EMPTY, frozenset(), frozenset())


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _SET_CONSTRUCTORS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return True
    return False


def _walk_expr(expr: ast.expr):
    """All sub-expressions, not descending into lambdas/comprehension defs."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Lambda):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _dotted(expr: ast.expr) -> str | None:
    """``a.b.c`` chains as a string (used as abstract state keys)."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        base = _dotted(expr.value)
        return None if base is None else f"{base}.{expr.attr}"
    return None


class FunctionTaint:
    """Run the taint lattice over one function.

    ``info`` is a :class:`repro.sanitize.flow.summaries.FunctionInfo`;
    ``program`` (optional) provides callee summaries and resolution.
    """

    def __init__(self, info, program=None) -> None:
        self.info = info
        self.program = program
        self.imports = info.imports
        self._callees: set[str] = set()
        self._sink_params: set[tuple[int, str]] = set()
        self._report: Callable | None = None
        self._reported: set[tuple[int, int, str]] = set()

    # -- public entry points ------------------------------------------

    def summarize(self) -> tuple[Summary, set[str]]:
        """Compute this function's summary with symbolic parameter taints."""
        seeds = {
            name: frozenset({Taint(f"param:{i}", 0, name)})
            for i, name in enumerate(self.info.params)
        }
        states = self._solve(seeds)
        self._sink_params.clear()
        self._scan(states, report=None)
        returns, param_returns = self._return_taints(states)
        summary = Summary(
            _collapse(frozenset(returns)), frozenset(param_returns),
            frozenset(self._sink_params),
        )
        return summary, self._callees

    def report(self, report: Callable[[int, int, str], None]) -> None:
        """Emit SL100 findings: real source taint reaching a sink."""
        states = self._solve({})
        self._scan(states, report=report)

    # -- dataflow ------------------------------------------------------

    def _solve(self, seeds: dict[str, frozenset[Taint]]):
        cfg = self.info.ensure_cfg()
        return solve_forward(
            cfg,
            init=dict(seeds),
            transfer=self._transfer,
            join=_join,
        )

    def _transfer(self, node: Node, state: dict) -> dict:
        stmt = node.stmt
        if stmt is None:
            return state
        if node.kind in ("stmt", "yield"):
            if isinstance(stmt, ast.Assign):
                taint = self._value_taint(stmt.value, state)
                return self._bind_targets(stmt.targets, taint, state)
            if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                taint = self._value_taint(stmt.value, state)
                return self._bind_targets([stmt.target], taint, state)
            if isinstance(stmt, ast.AugAssign):
                taint = self.taint_of(stmt.value, state)
                key = _dotted(stmt.target)
                if key is not None and taint:
                    state = dict(state)
                    state[key] = _collapse(state.get(key, _EMPTY) | taint)
                return state
            if isinstance(stmt, ast.Delete):
                keys = [_dotted(t) for t in stmt.targets]
                if any(k in state for k in keys if k is not None):
                    state = dict(state)
                    for k in keys:
                        state.pop(k, None)
                return state
            return state
        if node.kind == "loop" and isinstance(stmt, (ast.For, ast.AsyncFor)):
            taint = self._element_taint(stmt.iter, state, stmt.lineno)
            return self._bind_targets([stmt.target], taint, state)
        if node.kind == "with" and isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    taint = self.taint_of(item.context_expr, state)
                    state = self._bind_targets([item.optional_vars], taint, state)
            return state
        return state

    def _bind_targets(self, targets, taint: frozenset[Taint], state: dict) -> dict:
        taint = _collapse(taint)
        state = dict(state)
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                state = self._bind_targets(target.elts, taint, state)
            elif isinstance(target, ast.Starred):
                state = self._bind_targets([target.value], taint, state)
            elif isinstance(target, ast.Subscript):
                # Writing a tainted element taints the container: a dict
                # payload assembled field-by-field stays tracked.
                key = _dotted(target.value)
                if key is not None:
                    if taint:
                        state[key] = _collapse(state.get(key, _EMPTY) | taint)
            else:
                key = _dotted(target)
                if key is not None:
                    if taint:
                        state[key] = taint
                    else:
                        state.pop(key, None)
        return state

    def _value_taint(self, value: ast.expr, state: dict) -> frozenset[Taint]:
        if isinstance(value, (ast.Yield, ast.YieldFrom, ast.Await)):
            return _EMPTY  # resumed value comes from the kernel, assume clean
        return self.taint_of(value, state)

    def _element_taint(
        self, iterable: ast.expr, state: dict, line: int
    ) -> frozenset[Taint]:
        taint = self.taint_of(iterable, state)
        element = frozenset(t for t in taint if t.kind != "set-value")
        if _is_set_expr(iterable) or any(t.kind == "set-value" for t in taint):
            element |= {
                Taint("set-order", line, "set iteration order")
            }
        return element

    # -- expression evaluation ----------------------------------------

    def taint_of(self, expr: ast.expr, state: dict) -> frozenset[Taint]:
        if isinstance(expr, ast.Constant):
            return _EMPTY
        if isinstance(expr, (ast.Name, ast.Attribute)):
            key = _dotted(expr)
            if key is not None and key in state:
                return state[key]
            if isinstance(expr, ast.Attribute):
                return self.taint_of(expr.value, state)
            return _EMPTY
        if isinstance(expr, ast.Call):
            return self._call_taint(expr, state)
        if isinstance(expr, ast.BinOp):
            return self.taint_of(expr.left, state) | self.taint_of(expr.right, state)
        if isinstance(expr, ast.UnaryOp):
            return self.taint_of(expr.operand, state)
        if isinstance(expr, ast.BoolOp):
            out = _EMPTY
            for v in expr.values:
                out |= self.taint_of(v, state)
            return out
        if isinstance(expr, ast.Compare):
            out = self.taint_of(expr.left, state)
            for comp in expr.comparators:
                out |= self.taint_of(comp, state)
            return out
        if isinstance(expr, ast.IfExp):
            return self.taint_of(expr.body, state) | self.taint_of(expr.orelse, state)
        if isinstance(expr, (ast.Tuple, ast.List)):
            out = _EMPTY
            for elt in expr.elts:
                out |= self.taint_of(elt, state)
            return out
        if isinstance(expr, ast.Set):
            out = frozenset({Taint("set-value", expr.lineno, "set literal")})
            for elt in expr.elts:
                out |= self.taint_of(elt, state)
            return out
        if isinstance(expr, ast.Dict):
            out = _EMPTY
            for k, v in zip(expr.keys, expr.values):
                if k is not None:
                    out |= self.taint_of(k, state)
                out |= self.taint_of(v, state)
            return out
        if isinstance(expr, ast.Subscript):
            return self.taint_of(expr.value, state) | self.taint_of(expr.slice, state)
        if isinstance(expr, ast.Starred):
            return self.taint_of(expr.value, state)
        if isinstance(expr, ast.JoinedStr):
            out = _EMPTY
            for v in expr.values:
                if isinstance(v, ast.FormattedValue):
                    out |= self.taint_of(v.value, state)
            return out
        if isinstance(expr, ast.Slice):
            out = _EMPTY
            for part in (expr.lower, expr.upper, expr.step):
                if part is not None:
                    out |= self.taint_of(part, state)
            return out
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            return self._comp_taint(expr, state)
        if isinstance(expr, ast.NamedExpr):
            return self.taint_of(expr.value, state)
        return _EMPTY

    def _comp_taint(self, expr, state: dict) -> frozenset[Taint]:
        out = _EMPTY
        ordered = not isinstance(expr, ast.SetComp)
        for gen in expr.generators:
            iter_taint = self.taint_of(gen.iter, state)
            out |= frozenset(t for t in iter_taint if t.kind != "set-value")
            if ordered and (
                _is_set_expr(gen.iter)
                or any(t.kind == "set-value" for t in iter_taint)
            ):
                out |= {Taint("set-order", expr.lineno, "set iteration order")}
        if isinstance(expr, ast.DictComp):
            out |= self.taint_of(expr.key, state) | self.taint_of(expr.value, state)
        else:
            out |= self.taint_of(expr.elt, state)
        if isinstance(expr, ast.SetComp):
            out |= {Taint("set-value", expr.lineno, "set comprehension")}
        return out

    # -- calls ---------------------------------------------------------

    def _args_taint(self, call: ast.Call, state: dict) -> frozenset[Taint]:
        out = _EMPTY
        for arg in call.args:
            out |= self.taint_of(arg, state)
        for kw in call.keywords:
            out |= self.taint_of(kw.value, state)
        return out

    def _call_taint(self, call: ast.Call, state: dict) -> frozenset[Taint]:
        line = call.lineno
        dotted = self.imports.resolve(call.func)
        if dotted is not None:
            if dotted in _WALL_CLOCK:
                return frozenset({Taint("wall-clock", line, f"{dotted}()")})
            if dotted == "random.Random":
                if call.args or call.keywords:
                    return _EMPTY  # explicitly seeded instance: deterministic
                return frozenset({Taint("global-random", line, "random.Random()")})
            if dotted == "random.SystemRandom":
                return frozenset({Taint("entropy", line, "random.SystemRandom()")})
            if dotted.startswith("random."):
                return frozenset({Taint("global-random", line, f"{dotted}()")})
            if (
                dotted.startswith("numpy.random.")
                and dotted.split(".")[-1] not in _NUMPY_RANDOM_OK
            ):
                return frozenset({Taint("global-random", line, f"{dotted}()")})
            if dotted in _ENTROPY or dotted.startswith("secrets."):
                return frozenset({Taint("entropy", line, f"{dotted}()")})
            if dotted in SINK_FUNCTIONS:
                self._check_sink(
                    call, SINK_FUNCTIONS[dotted], call.args[1:], call.keywords, state
                )
                return _EMPTY
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name == "id":
                return frozenset({Taint("id-order", line, "id()")})
            if name == "hash":
                return frozenset({Taint("hash-order", line, "hash()")})
            if name in _ORDER_INSENSITIVE:
                return frozenset(
                    t
                    for t in self._args_taint(call, state)
                    if t.kind not in ("set-order", "set-value")
                )
            if name in _SET_CONSTRUCTORS:
                return self._args_taint(call, state) | {
                    Taint("set-value", line, f"{name}()")
                }
            if name in _ORDER_MATERIALIZERS:
                taint = self._args_taint(call, state)
                if any(t.kind == "set-value" for t in taint):
                    taint = frozenset(
                        t for t in taint if t.kind != "set-value"
                    ) | {Taint("set-order", line, f"{name}() of a set")}
                return taint
            return self._apply_summaries(call, state, obj_taint=_EMPTY)
        if isinstance(func, ast.Attribute):
            obj_taint = self.taint_of(func.value, state)
            if func.attr in _SET_METHODS:
                return (
                    obj_taint
                    | self._args_taint(call, state)
                    | {Taint("set-value", line, f".{func.attr}()")}
                )
            if func.attr == "join":
                taint = obj_taint | self._args_taint(call, state)
                if any(t.kind == "set-value" for t in taint):
                    taint = frozenset(
                        t for t in taint if t.kind != "set-value"
                    ) | {Taint("set-order", line, ".join() of a set")}
                return taint
            if func.attr in SINK_METHODS:
                self._check_sink(
                    call, SINK_METHODS[func.attr], call.args, call.keywords, state
                )
                return _EMPTY
            return self._apply_summaries(call, state, obj_taint=obj_taint)
        return self._args_taint(call, state)

    # -- interprocedural application ----------------------------------

    def _apply_summaries(
        self, call: ast.Call, state: dict, obj_taint: frozenset[Taint]
    ) -> frozenset[Taint]:
        default = obj_taint | self._args_taint(call, state)
        if self.program is None:
            return default
        targets = self.program.resolve_call(self.info, call.func)
        if not targets:
            return default
        out = obj_taint
        for qualname in targets:
            self._callees.add(qualname)
            summary = self.program.summaries.get(qualname, EMPTY_SUMMARY)
            callee = self.program.functions[qualname]
            arg_map = self._map_args(call, callee.params)
            out |= summary.returns
            for index in summary.param_returns:
                for arg in arg_map.get(index, ()):
                    out |= self.taint_of(arg, state)
            for index, desc in summary.sink_params:
                for arg in arg_map.get(index, ()):
                    self._sink_values(
                        call, f"{desc} inside {callee.name}()", [arg], state
                    )
        return out

    def _map_args(self, call: ast.Call, params: list[str]) -> dict[int, list[ast.expr]]:
        """Map callee parameter index -> caller argument expressions."""
        mapping: dict[int, list[ast.expr]] = {}
        offset = 1 if params and params[0] in ("self", "cls") else 0
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                for j in range(len(params)):
                    mapping.setdefault(j, []).append(arg.value)
            else:
                mapping.setdefault(i + offset, []).append(arg)
        index_of = {name: i for i, name in enumerate(params)}
        for kw in call.keywords:
            if kw.arg is None:  # **kwargs: could hit anything
                for j in range(len(params)):
                    mapping.setdefault(j, []).append(kw.value)
            elif kw.arg in index_of:
                mapping.setdefault(index_of[kw.arg], []).append(kw.value)
        return mapping

    # -- sinks ---------------------------------------------------------

    def _check_sink(self, call, desc, args, keywords, state) -> None:
        values = list(args) + [kw.value for kw in keywords]
        self._sink_values(call, desc, values, state)

    def _sink_values(self, call, desc, values, state) -> None:
        # Summaries store only the undecorated sink description; the
        # "inside helper()" decoration is added per call site at report
        # time.  Storing decorated strings would grow them each round of
        # the interprocedural fixpoint on recursive call cycles.
        base = desc.split(" inside ", 1)[0]
        for value in values:
            for taint in self.taint_of(value, state):
                if taint.kind.startswith("param:"):
                    index = int(taint.kind.split(":", 1)[1])
                    self._sink_params.add((index, base))
                elif taint.kind in REAL_KINDS and self._report is not None:
                    key = (call.lineno, call.col_offset, taint.kind)
                    if key in self._reported:
                        continue
                    self._reported.add(key)
                    origin = (
                        f"{taint.source} (line {taint.line})"
                        if taint.line
                        else taint.source
                    )
                    self._report(
                        call.lineno,
                        call.col_offset,
                        f"value tainted by {origin} flows into {desc} — "
                        f"{taint.kind} nondeterminism reaches the kernel",
                    )

    # -- post-fixpoint scan -------------------------------------------

    def _scan(self, states: dict[int, dict], report) -> None:
        """Visit every reachable node once and check calls against sinks."""
        self._report = report
        cfg = self.info.ensure_cfg()
        for index, state in states.items():
            node = cfg.nodes[index]
            for expr in _node_exprs(node):
                for sub in _walk_expr(expr):
                    if isinstance(sub, ast.Call):
                        # Re-evaluating performs the sink checks (and
                        # interprocedural sink-param checks) in context.
                        self._call_taint(sub, state)
        self._report = None

    def _return_taints(self, states) -> tuple[set[Taint], set[int]]:
        cfg = self.info.ensure_cfg()
        returns: set[Taint] = set()
        param_returns: set[int] = set()
        for index, state in states.items():
            node = cfg.nodes[index]
            if isinstance(node.stmt, ast.Return) and node.stmt.value is not None:
                for taint in self.taint_of(node.stmt.value, state):
                    if taint.kind.startswith("param:"):
                        param_returns.add(int(taint.kind.split(":", 1)[1]))
                    elif taint.kind in REAL_KINDS or taint.kind == "set-value":
                        returns.add(taint)
        return returns, param_returns


def _join(a: dict, b: dict) -> dict:
    if a == b:
        return a
    out = dict(a)
    for key, taint in b.items():
        if key in out:
            out[key] = _collapse(out[key] | taint)
        else:
            out[key] = taint
    return out


def _node_exprs(node: Node) -> list[ast.expr]:
    """The expressions a CFG node itself evaluates (not nested blocks)."""
    stmt = node.stmt
    if stmt is None:
        return []
    if node.kind in ("stmt", "yield"):
        return [
            child for child in ast.iter_child_nodes(stmt)
            if isinstance(child, ast.expr)
        ] or _stmt_exprs(stmt)
    if node.kind == "cond":
        if isinstance(stmt, (ast.If, ast.While)):
            return [stmt.test]
        if hasattr(ast, "Match") and isinstance(stmt, ast.Match):
            return [stmt.subject]
        return []
    if node.kind == "loop" and isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if node.kind == "with" and isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if node.kind == "except":
        return []
    return []


def _stmt_exprs(stmt: ast.stmt) -> list[ast.expr]:
    out = []
    for child in ast.walk(stmt):
        if isinstance(child, ast.expr):
            out.append(child)
            break
    return out
