"""Every option that ``src/`` declares has a setter outside the tests.

A default that no caller overrides is a constant with a name that
invites a second value nobody runs: its other branches are read, kept
and tested, and say nothing about a run.  An option is a parameter with
a default (positional or keyword-only) of a module-level function or a
method, or a field with a default of a ``@dataclass`` or ``NamedTuple``
(not ``field(init=False)``, not ``ClassVar``).  Names starting with
``_`` are exempt, and so are the defaults of nested defs, which are
closure captures.

This test parses ``src/``, ``examples/`` and ``benchmarks/`` and fails
with ``file:line`` for each option in ``src/`` that none of these sets:

- a call to the def's name that passes the option by keyword, passes
  more positional arguments than its index, or splats ``*``/``**``.
  For ``__init__`` and for fields the name is the class's, and
  ``cls(...)`` inside that class counts;
- a ``replace(...)`` or ``with_updates(...)`` keyword of that name;
- a string key of that name in a dict literal (the sweep matrix's
  overrides);
- an attribute store ``<obj>.<name> = ...`` on anything but ``self``.

The tests do not count, as in ``test_no_uncalled_functions``.

It is a floor, not the whole rule: it matches by name only, so an unset
option gets past it when a call to another def of the same name passes
a keyword of the same name.  ``ALLOWED`` keys are ``path::Class`` (every
field of the class), ``path::Class.field`` or ``path::qualname(param)``.
An option stays unset for one of two reasons: it is a calibrated
parameter of the simulated system, kept with its model, or a safety
battery (sanitizer, zero-perturbation, determinism, sharded-differential
or chaos tests) needs a second value.  An entry that names no option,
or whose options now all have a setter, fails the test too.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

from tests.source_index import REPO_ROOT, is_record_class, modules, record_fields

CALLER_TREES = ("src", "examples", "benchmarks")
UPDATERS = ("replace", "with_updates")

_CALIBRATED = "calibrated parameter of the simulated system, kept with its model"
_SHARDED = "the sharded-differential tests run the experiment on 2 shards against 1"
_OUTAGE_SCOPE = "the collector-outage chaos tests take down some namespaces' servers only"

#: ``path::Class``, ``path::Class.field`` or ``path::qualname(param)`` ->
#: why the option stays although only tests set it.
ALLOWED: dict[str, str] = {
    # Calibrated parameters of the simulated system.
    "src/repro/platform/specs.py::NodeSpec": _CALIBRATED,
    "src/repro/platform/specs.py::NetworkSpec": _CALIBRATED,
    "src/repro/platform/specs.py::ClusterSpec": _CALIBRATED,
    "src/repro/rp/config.py::RPConfig": _CALIBRATED,
    "src/repro/workloads/openfoam.py::OpenFOAMParams": _CALIBRATED,
    "src/repro/workloads/ddmd.py::DDMDParams": _CALIBRATED,
    "src/repro/soma/service.py::SomaConfig.per_byte_service_time": _CALIBRATED,
    # A safety battery needs a second value.
    "src/repro/sim/core.py::Environment.sanitize_check(strict)": (
        "the sanitizer tests collect findings without raising (strict=False)"
    ),
    "src/repro/telemetry/spans.py::Telemetry.__init__(enabled)": (
        "the telemetry tests build an enabled and a disabled hub whatever "
        "the process switch says"
    ),
    "src/repro/experiments/openfoam_exps.py::OpenFOAMExperiment.soma_shards": _SHARDED,
    "src/repro/experiments/ddmd_exps.py::DDMDExperiment.soma_shards": _SHARDED,
    "src/repro/faults/plan.py::FaultPlan.service_outage(namespaces)": _OUTAGE_SCOPE,
    "src/repro/faults/plan.py::FaultPlan.shard_outage(namespaces)": _OUTAGE_SCOPE,
    "src/repro/soma/service.py::SomaServiceModel.store(tenant)": (
        "the sharding tests read a named tenant's store to check where its "
        "publishes landed"
    ),
    "src/repro/provenance/builder.py::build_graph(hub)": (
        "the provenance chaos tests build the graph of a faulted run from its hub"
    ),
    "src/repro/provenance/builder.py::build_graph(plan)": (
        "the provenance chaos tests pass the fault plan they injected"
    ),
    "src/repro/provenance/critical_path.py::render_critical_path(top)": (
        "the provenance goldens, which CI runs twice in one process as a "
        "determinism check, pin a 10-edge table"
    ),
}


@dataclass(frozen=True)
class Option:
    """One settable default: where it is and how a caller can reach it."""

    key: str
    name: str
    line: int
    callee: str
    index: int | None


@dataclass
class Setters:
    """What the caller trees pass, store and name, by name."""

    keywords: set[tuple[str, str]] = field(default_factory=set)
    positional: dict[str, int] = field(default_factory=dict)
    splatted: set[str] = field(default_factory=set)
    names: set[str] = field(default_factory=set)

    def sets(self, option: Option) -> bool:
        return (
            (option.callee, option.name) in self.keywords
            or option.name in self.names
            or option.callee in self.splatted
            or (
                option.index is not None
                and self.positional.get(option.callee, 0) > option.index
            )
        )


def _params(fn: ast.FunctionDef | ast.AsyncFunctionDef, method: bool):
    """(name, positional index or None, line) of each parameter with a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    static = any(ast.unparse(d) == "staticmethod" for d in fn.decorator_list)
    skip = 1 if method and not static else 0
    first_default = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        if index >= first_default:
            yield arg.arg, index - skip, arg.lineno
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None, arg.lineno


def _is_init_field(stmt: ast.AnnAssign) -> bool:
    if "ClassVar" in ast.unparse(stmt.annotation):
        return False
    value = stmt.value
    return not (
        isinstance(value, ast.Call)
        and ast.unparse(value.func) in ("field", "dataclasses.field")
        and any(
            kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
            for kw in value.keywords
        )
    )


def _options(rel: str, module: ast.Module) -> Iterator[Option]:
    def walk(body, prefix: str, cls: ast.ClassDef | None):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callee = cls.name if cls and node.name == "__init__" else node.name
                for name, index, line in _params(node, cls is not None):
                    if not name.startswith("_"):
                        key = f"{rel}::{prefix}{node.name}({name})"
                        yield Option(key, name, line, callee, index)
            elif isinstance(node, ast.ClassDef):
                if is_record_class(node):
                    fields = [stmt for stmt in record_fields(node) if _is_init_field(stmt)]
                    for index, stmt in enumerate(fields):
                        name = stmt.target.id
                        if stmt.value is not None and not name.startswith("_"):
                            key = f"{rel}::{prefix}{node.name}.{name}"
                            yield Option(key, name, stmt.lineno, node.name, index)
                yield from walk(node.body, f"{prefix}{node.name}.", node)

    yield from walk(module.body, "", None)


def _collect_setters(module: ast.Module, setters: Setters) -> None:
    def visit(node: ast.AST, cls: str | None):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if callee == "cls" and cls is not None:
                callee = cls
            if callee is not None:
                keywords = [kw.arg for kw in node.keywords if kw.arg is not None]
                if callee in UPDATERS:
                    setters.names.update(keywords)
                setters.keywords.update((callee, kw) for kw in keywords)
                if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    kw.arg is None for kw in node.keywords
                ):
                    setters.splatted.add(callee)
                count = len(node.args)
                setters.positional[callee] = max(setters.positional.get(callee, 0), count)
        elif isinstance(node, ast.Dict):
            setters.names.update(
                key.value
                for key in node.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        ):
            setters.names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(module, None)


def _covers(entry: str, option: Option) -> bool:
    """``entry`` names ``option``, or the record class it is a field of."""
    return option.key in (entry, f"{entry}.{option.name}")


def scan(root: Path, allowed: Mapping[str, str]) -> tuple[list[str], list[str], int]:
    """(unset options not in ``allowed``, stale ``allowed`` entries, options)."""
    setters = Setters()
    options: list[Option] = []
    for tree in CALLER_TREES:
        for module in modules(root, tree):
            _collect_setters(module.tree, setters)
            if tree == "src":
                options.extend(_options(module.rel, module.tree))
    unset = [option for option in options if not setters.sets(option)]
    flagged = [
        f"{option.key.replace('::', f':{option.line}: ', 1)} has no setter outside the tests"
        for option in unset
        if not any(_covers(entry, option) for entry in allowed)
    ]
    stale = []
    for entry in allowed:
        if not any(_covers(entry, option) for option in options):
            stale.append(f"{entry}: allowed, but no such option")
        elif not any(_covers(entry, option) for option in unset):
            stale.append(f"{entry}: allowed, but it has a setter")
    return flagged, stale, len(options)


def test_every_option_in_src_has_a_setter():
    flagged, stale, _ = scan(REPO_ROOT, ALLOWED)
    assert not flagged, "options only tests set:\n" + "\n".join(flagged)
    assert not stale, "stale allowlist entries:\n" + "\n".join(stale)
    assert all(reason.strip() for reason in ALLOWED.values())


def test_scan_names_a_planted_unset_option_and_a_stale_entry(tmp_path):
    for tree in ("src", "examples", "benchmarks", "tests"):
        (tmp_path / tree).mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        "from dataclasses import dataclass, field, replace\n"
        "def run(count, scale=1.0, *, label='x', _cache=None):\n"
        "    def inner(step=scale):\n"
        "        return step\n"
        "    return inner\n"
        "class Box:\n"
        "    def __init__(self, size=1, color='red'):\n"
        "        self.size = size\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls(size=2)\n"
        "@dataclass\n"
        "class Spec:\n"
        "    name: str\n"
        "    width: int = 1\n"
        "    depth: int = 2\n"
        "    mode: str = 'a'\n"
        "    notes: list = field(init=False, default_factory=list)\n"
        "def widen(spec):\n"
        "    return replace(spec, width=3)\n"
    )
    (tmp_path / "examples" / "demo.py").write_text(
        "from mod import Box, Spec, run\n"
        "run(1, 2.0)\n"
        "Spec('s', 1, 2)\n"
        "box = Box()\n"
        "box.color = 'blue'\n"
        "overrides = {'mode': 'b'}\n"
    )
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from mod import run\n"
        "run(1, label='y')\n"
    )
    allowed = {"src/mod.py::gone(x)": "deleted", "src/mod.py::Spec": "calibrated"}
    flagged, stale, options = scan(tmp_path, allowed)
    assert flagged == ["src/mod.py:2: run(label) has no setter outside the tests"]
    assert stale == [
        "src/mod.py::gone(x): allowed, but no such option",
        "src/mod.py::Spec: allowed, but it has a setter",
    ]
    assert options == 7
