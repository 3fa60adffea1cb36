"""One end-to-end simulation in a fresh process (the child side of bench_e2e).

``bench_e2e.py`` starts this script once per (workload, seed), one at a
time, and reads the single JSON line it prints.  It can also be run by
hand from the repository root::

    python3 benchmarks/e2e/scenarios.py overload 3
    python3 benchmarks/e2e/scenarios.py facility 17 --trace

The child isolates its environment (every inherited ``REPRO_*`` variable
is dropped, then the workload's own are set), imports the simulator and
builds the scenario objects (that span is ``setup_s``), runs the
simulation once with wall and CPU clocks around it, and only then
computes the run digest and the correctness checks, outside the timed
region.  ``--trace`` wraps the simulation in a ``cProfile`` hook and
reports the per-layer ledger: self time and calls grouped by
``src/repro/<package>``, plus a few named call counts and instance
counters read through public attributes after the run.  No file under
``src/`` changes: besides the profiler, the only hook is :class:`Census`,
which records instances of five classes as they are built.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import importlib
import json
import os
import pstats
import resource
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

_STARTED = time.time()  # simlint: disable=wall-clock(host-time measurement of the simulator, not simulation state)

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
REPRO_DIR = SRC / "repro"

#: The four workloads, and whose golden digests each must reproduce.
#: ``overload-observed`` simulates the ``overload`` scenario with every
#: observability tap on, so matching the ``overload`` goldens is the
#: zero-perturbation check.
GOLDEN_OF = {
    "overload": "overload",
    "overload-observed": "overload",
    "fig11-none": "fig11-none",
    "facility": "facility",
}
WORKLOADS = tuple(GOLDEN_OF)

#: Environment each workload's child runs under (on top of an
#: environment with every inherited ``REPRO_*`` variable removed).
WORKLOAD_ENV = {
    "overload-observed": {
        "REPRO_TELEMETRY": "1",
        "REPRO_PROVENANCE": "1",
        "REPRO_SANITIZE": "1",
    },
}

#: Scenario seeds with committed golden digests.  3, 17 and 33 are the
#: repository's usual differential seeds and the default report's set.
SEED_POOL = (3, 17, 33, 5, 11, 23, 42, 71)

#: Host-time layers: the simulator's packages, with the runtime
#: sanitizer split out of ``sim``; ``stdlib`` is everything outside the
#: repository (interpreter builtins, the standard library, numpy).
LAYERS = (
    "sim",
    "platform",
    "conduit",
    "monitors",
    "messaging",
    "rp",
    "entk",
    "soma",
    "faults",
    "telemetry",
    "provenance",
    "sanitizer",
    "other",
    "stdlib",
)

#: ``src/repro/<package>`` -> layer.  Drivers, analysis and the static
#: linter are off the simulation hot path and share ``other``.  A new
#: package must be added here (the smoke test checks every file maps).
PACKAGE_LAYERS = {
    "sim": "sim",
    "platform": "platform",
    "conduit": "conduit",
    "monitors": "monitors",
    "messaging": "messaging",
    "rp": "rp",
    "entk": "entk",
    "soma": "soma",
    "faults": "faults",
    "telemetry": "telemetry",
    "provenance": "provenance",
    "adaptive": "other",
    "analysis": "other",
    "experiments": "other",
    "sanitize": "other",
    "sweep": "other",
    "workloads": "other",
    "": "other",  # top-level modules: cli, __init__, ...
}

#: Per-layer call counts read from the profile, by function.
COUNTED = {
    "conduit.leaves_calls": ("repro.conduit.node", "Node.leaves"),
    "conduit.nbytes_calls": ("repro.conduit.node", "Node.nbytes"),
    "conduit.nodes_built": ("repro.conduit.node", "Node.__init__"),
    "conduit.split_calls": ("repro.conduit.node", "_split"),
    "rp.place_attempts": ("repro.rp.agent.scheduler", "AgentScheduler._try_place"),
    "platform.rateshare_reschedules": ("repro.platform.rateshare", "RatePool._reschedule"),
    "soma.store_appends": ("repro.soma.storage", "NamespaceStore.append"),
}


def layer_of(filename: str, default: str | None = "other") -> str | None:
    """The layer a profiled code object's file belongs to.

    ``default`` is returned for a file in a ``src/repro`` package that
    :data:`PACKAGE_LAYERS` does not name.
    """
    if not filename.endswith(".py"):
        return "stdlib"  # builtins ("~"), frozen modules, <string>
    path = Path(os.path.realpath(filename))
    try:
        rel = path.relative_to(REPRO_DIR)
    except ValueError:
        return "other" if ROOT in path.parents else "stdlib"
    if rel.as_posix() == "sim/sanitizer.py":
        return "sanitizer"
    package = rel.parts[0] if len(rel.parts) > 1 else ""
    return PACKAGE_LAYERS.get(package, default)


def _code_key(module: str, qualname: str) -> tuple[str, int, str]:
    obj: Any = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    code = obj.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


@dataclass
class Outcome:
    """What one simulation produced (``result`` is the simulator's own)."""

    result: Any
    violations: tuple = ()
    graph_events: int = 0
    graph_edges: int = 0
    build_graph_s: float = 0.0
    critical_path_s: float = 0.0


def timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    """Run ``fn`` once, returning (host wall seconds, result)."""
    start = time.perf_counter()  # simlint: disable=wall-clock(host-time measurement of the simulator, not simulation state)
    result = fn()
    return time.perf_counter() - start, result  # simlint: disable=wall-clock(host-time measurement of the simulator, not simulation state)


def _overload(seed: int) -> Callable[[], Outcome]:
    from repro.experiments import OVERLOAD, run_openfoam_experiment

    return lambda: Outcome(run_openfoam_experiment(OVERLOAD, seed=seed))


def _overload_observed(seed: int) -> Callable[[], Outcome]:
    """The overload run followed by what ``repro why run`` does with it."""
    from repro.experiments import OVERLOAD, run_openfoam_experiment
    from repro.provenance import build_graph, critical_path, validate_graph

    def simulate() -> Outcome:
        result = run_openfoam_experiment(OVERLOAD, seed=seed)
        build_graph_s, graph = timed(lambda: build_graph(result))
        violations = tuple(validate_graph(graph))
        critical_path_s, _ = timed(lambda: critical_path(graph))
        return Outcome(
            result,
            violations=violations,
            graph_events=len(graph.events),
            graph_edges=len(graph.edges),
            build_graph_s=build_graph_s,
            critical_path_s=critical_path_s,
        )

    return simulate


def _fig11_none(seed: int) -> Callable[[], Outcome]:
    from repro.experiments import SCALING_B, run_ddmd_experiment

    experiment = SCALING_B(128, "none")
    return lambda: Outcome(run_ddmd_experiment(experiment, seed=seed))


def _facility(seed: int) -> Callable[[], Outcome]:
    from repro.experiments.facility import (
        FacilitySpec,
        facility_chaos_plan,
        run_facility,
    )

    spec = FacilitySpec(
        pilots=200,
        shards=4,
        service_nodes=4,
        tasks_per_pilot=500,
        concurrency=8,
        period=60.0,
        admission_rate=0.5,
    )
    plan = facility_chaos_plan(spec)
    return lambda: Outcome(run_facility(spec, seed=seed, fault_plan=plan))


PREPARE = {
    "overload": _overload,
    "overload-observed": _overload_observed,
    "fig11-none": _fig11_none,
    "facility": _facility,
}


def run_digest(result: Any) -> str:
    """sha256 of everything a run simulated.

    For a workflow run (it has a session): every trace record, every
    SOMA store record, the kernel counters and the makespan.  For a
    facility run: its plain-data manifest.
    """
    digest = hashlib.sha256()
    if not hasattr(result, "session"):
        digest.update(json.dumps(result.payload(), sort_keys=True).encode())
        return digest.hexdigest()
    for rec in result.session.tracer.records:
        digest.update(
            f"{rec.time!r}|{rec.category}|{rec.name}|"
            f"{sorted(rec.data.items())!r}\n".encode()
        )
    deployment = result.deployment
    if deployment.enabled:
        for namespace in deployment.config.namespaces:
            for rec in deployment.store(namespace).records():
                digest.update(
                    f"{namespace}|{rec.time!r}|{rec.source}|{rec.nbytes!r}|"
                    f"{rec.data.to_json()}\n".encode()
                )
    counters = result.session.env.kernel_counters()
    digest.update(json.dumps(counters, sort_keys=True).encode())
    digest.update(repr(result.makespan).encode())
    return digest.hexdigest()


def check(outcome: Outcome) -> list[str]:
    """Every way the run failed, other than a digest mismatch."""
    from repro.sim.sanitizer import drain_spontaneous_findings

    failures = []
    result = outcome.result
    if hasattr(result, "session"):
        not_done = sum(1 for t in result.application_tasks if t.state != "DONE")
        if not_done:
            failures.append(f"{not_done} application task(s) not DONE")
    else:
        expected = result.spec.pilots * result.spec.tasks_per_pilot
        if result.samples_generated != expected:
            failures.append(
                f"{expected - result.samples_generated} task(s) not done"
            )
        if result.stalled_tasks:
            failures.append(f"{result.stalled_tasks} stalled task(s)")
    failures += [f"provenance: {v.format()}" for v in outcome.violations]
    failures += [f"sanitizer: {f.format()}" for f in drain_spontaneous_findings()]
    return failures


class Census:
    """Keeps every instance of the given classes created while active.

    Instance counters (``RPCClient.calls``, ``len(store)``...) are read
    after the run; collecting the instances here means an object the
    simulation dropped mid-run is still counted.
    """

    def __init__(self, *classes: type) -> None:
        self._classes = classes
        self._saved: dict[type, Callable | None] = {}
        #: class name -> instances, in creation order.
        self.instances: dict[str, list] = {cls.__name__: [] for cls in classes}

    def __enter__(self) -> "Census":
        for cls in self._classes:
            self._saved[cls] = cls.__dict__.get("__init__")
            cls.__init__ = _recording_init(cls.__init__, self.instances[cls.__name__])
        return self

    def __exit__(self, *exc: object) -> None:
        for cls, init in self._saved.items():
            if init is None:
                del cls.__init__
            else:
                cls.__init__ = init

    def __getitem__(self, name: str) -> list:
        return self.instances[name]


def _recording_init(init: Callable, bucket: list) -> Callable:
    def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        bucket.append(self)

    return __init__


def ledger(profile: cProfile.Profile, census: Census, outcome: Outcome) -> dict:
    """Per-layer metrics of one traced run (see bench_e2e.PER_LAYER)."""
    stats = pstats.Stats(profile).stats
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for (filename, _line, _name), (_cc, nc, tt, _ct, _callers) in stats.items():
        layer = layer_of(filename)
        self_s[layer] += tt
        calls[layer] += nc
    total = sum(self_s.values())
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.self_share"] = self_s[layer] / total
        out[f"{layer}.calls"] = calls[layer]
    for name, (module, qualname) in COUNTED.items():
        entry = stats.get(_code_key(module, qualname))
        out[name] = entry[1] if entry else 0

    (env,) = census["Environment"]
    counters = env.kernel_counters()
    out["sim.events_executed"] = counters["events_executed"]
    out["sim.events_scheduled"] = counters["events_scheduled"]
    out["sim.peak_pending"] = counters["peak_heap_size"]
    out["sim.tombstones_skipped"] = counters["tombstones_skipped"]
    attempts = out["rp.place_attempts"]
    placed = sum(s.scheduled_count for s in census["AgentScheduler"])
    out["rp.place_yield"] = placed / attempts if attempts else 0.0
    out["soma.publishes"] = sum(
        c.published + c.publish_failures for c in census["SomaClient"]
    )
    out["soma.records_stored"] = sum(len(s) for s in census["NamespaceStore"])
    out["messaging.rpc_calls"] = sum(c.calls for c in census["RPCClient"])
    hub = env.telemetry
    out["telemetry.spans"] = len(hub.spans) if hub is not None else 0
    out["provenance.graph_events"] = outcome.graph_events
    out["provenance.graph_edges"] = outcome.graph_edges
    return out


def _isolate_environment(workload: str) -> None:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(WORKLOAD_ENV.get(workload, {}))


def run(workload: str, seed: int, spawned_at: float, trace: bool, setup_only: bool) -> dict:
    _isolate_environment(workload)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.messaging.rpc import RPCClient
    from repro.rp.agent.scheduler import AgentScheduler
    from repro.sim.core import Environment
    from repro.soma.client import SomaClient
    from repro.soma.storage import NamespaceStore

    simulate = PREPARE[workload](seed)
    setup_s = time.time() - spawned_at  # simlint: disable=wall-clock(host-time measurement of the simulator, not simulation state)
    if setup_only:
        return {"workload": workload, "seed": seed, "setup_s": setup_s}

    census = Census(Environment, AgentScheduler, SomaClient, RPCClient, NamespaceStore)
    profile = cProfile.Profile() if trace else None
    if profile is not None:
        simulate = partial(profile.runcall, simulate)
    with census:
        cpu0 = time.process_time()  # simlint: disable=wall-clock(host-time measurement of the simulator, not simulation state)
        wall_s, outcome = timed(simulate)
        cpu_s = time.process_time() - cpu0  # simlint: disable=wall-clock(host-time measurement of the simulator, not simulation state)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    (env,) = census["Environment"]
    report = {
        "workload": workload,
        "seed": seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "events_executed": env.events_executed,
        "build_graph_s": outcome.build_graph_s,
        "critical_path_s": outcome.critical_path_s,
        "digest": run_digest(outcome.result),
        "failures": check(outcome),
    }
    if profile is not None:
        report["ledger"] = ledger(profile, census, outcome)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument(
        "--spawned-at",
        type=float,
        default=None,
        help="time.time() when the parent started this process "
        "(setup_s is measured from it; default: this script's start)",
    )
    parser.add_argument("--trace", action="store_true", help="profile the run")
    parser.add_argument(
        "--setup-only", action="store_true", help="stop once ready to simulate"
    )
    args = parser.parse_args(argv)
    spawned_at = _STARTED if args.spawned_at is None else args.spawned_at
    report = run(args.workload, args.seed, spawned_at, args.trace, args.setup_only)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
