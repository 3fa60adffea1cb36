"""Multi-process sweep execution with caching and crash-safe resume.

Execution model: cells are classified against the journal and the
content-addressed cache, the remainder is ordered by the shard planner
(LPT), and a process pool consumes that order.  Each completion is
written to the cache and the journal *before* the next result is
awaited, so at every instant the on-disk state describes exactly the
set of completed cells:

* a worker that dies with an exception marks its cell failed and the
  sweep finishes the rest, then raises :class:`SweepInterrupted`;
* a worker that is ``SIGKILL``-ed breaks the whole pool (the OS took
  the process; in-flight siblings are lost too) — the journal still
  holds every completed cell, and a ``resume=True`` re-run replays it,
  recomputing only what never completed.

``jobs=1`` runs the exact same cell code inline — the serial reference
path the parity battery compares the sharded runs against.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from .cache import ResultCache
from .journal import Journal
from .planner import plan_shards, schedule_order
from .spec import CellSpec, SweepSpec, canonical_json, code_fingerprint, result_digest

__all__ = [
    "SweepRun",
    "SweepInterrupted",
    "run_sweep",
    "cells_signature",
    "execute_cell",
]

MANIFEST_SCHEMA = "repro-sweep-manifest-v1"


def execute_cell(cell: dict) -> dict:
    """Worker entry point: run one cell, return its completed record.

    Top-level and fed only plain data, so it pickles under any
    multiprocessing start method.  The worker-fault hook fires *after*
    the cell is claimed but before any work lands — an injected death
    here is indistinguishable from the kernel OOM-killing the worker
    mid-cell.
    """
    from ..experiments.harness import run_cell
    from ..faults.worker import check_worker_fault

    check_worker_fault(cell["key"])
    telemetry_dir = cell.get("telemetry_dir")
    start = time.perf_counter()
    if telemetry_dir:
        payload, trace_path = _run_cell_traced(cell, telemetry_dir)
    else:
        payload = run_cell(cell["family"], cell["params"], cell["seed"])
        trace_path = None
    wall = time.perf_counter() - start
    record = {
        "key": cell["key"],
        "family": cell["family"],
        "seed": cell["seed"],
        "params": cell["params"],
        "digest": cell["digest"],
        "result_digest": result_digest(payload),
        "wall_seconds": wall,
        "payload": payload,
    }
    if trace_path is not None:
        record["trace"] = trace_path
    return record


def _run_cell_traced(cell: dict, telemetry_dir: str) -> "tuple[dict, str]":
    """Run one cell with span telemetry on and export its Chrome trace.

    Telemetry holds a hard zero-perturbation contract, so the payload
    (and therefore the result digest) is byte-identical to an untraced
    run — only the side-channel trace file differs.
    """
    from ..experiments.harness import run_cell
    from ..sim import observability
    from ..telemetry import chrome_trace, merge_chrome_traces, save_chrome_trace

    with observability(telemetry=True) as hubs:
        payload = run_cell(cell["family"], cell["params"], cell["seed"])
    document = merge_chrome_traces(
        [chrome_trace(hub, pid=index + 1) for index, hub in enumerate(hubs)]
    )
    safe_key = cell["key"].replace("/", "_")
    path = save_chrome_trace(
        Path(telemetry_dir) / f"{safe_key}.trace.json", document
    )
    return payload, str(path)


@dataclass
class SweepRun:
    """A finished (or interrupted) sweep: manifest + in-memory payloads."""

    manifest: dict
    payloads: dict[str, dict] = field(default_factory=dict)


class SweepInterrupted(RuntimeError):
    """Sweep did not complete; ``run`` holds the partial state."""

    def __init__(self, message: str, run: SweepRun) -> None:
        super().__init__(message)
        self.run = run
        self.manifest = run.manifest


def cells_signature(manifest: dict) -> list[dict]:
    """Timing-free view of a manifest's completed cells (for parity)."""
    return [
        {
            k: entry[k]
            for k in ("key", "family", "seed", "digest", "result_digest")
        }
        for entry in manifest["cells"]
    ]


def _matrix_digest(entries: Iterable[dict]) -> str:
    pairs = sorted((e["key"], e["result_digest"]) for e in entries)
    return hashlib.sha256(canonical_json(pairs).encode("utf-8")).hexdigest()


def _mp_context(start_method: str | None):
    method = start_method or os.environ.get("REPRO_SWEEP_MP", "").strip()
    if not method:
        method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
    return multiprocessing.get_context(method)


def run_sweep(
    spec: "SweepSpec | Iterable[CellSpec]",
    *,
    jobs: int = 1,
    sweep_dir: str | Path,
    cache_dir: "str | Path | None" = None,
    resume: bool = False,
    progress: "Callable[[str], None] | None" = None,
    mp_start: str | None = None,
    telemetry_dir: "str | Path | None" = None,
) -> SweepRun:
    """Run every cell of ``spec``, skipping completed ones.

    ``telemetry_dir`` turns on span telemetry in every worker and drops
    one Chrome trace per cell into that directory.  Traces are a side
    product of actually running the cell, so it forces every cell to
    recompute (cache and journal short-circuits are skipped) and
    disables same-digest deduplication — each cell gets its own trace.
    Payloads and result digests stay byte-identical to an untraced run.

    Returns a :class:`SweepRun`; raises :class:`SweepInterrupted` (with
    the partial run attached) if a worker failed or the pool broke.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    spec = spec if isinstance(spec, SweepSpec) else SweepSpec(spec)
    sweep_dir = Path(sweep_dir)
    sweep_dir.mkdir(parents=True, exist_ok=True)
    cache = ResultCache(cache_dir if cache_dir is not None else sweep_dir / "cache")
    journal = Journal(sweep_dir / "journal.jsonl")
    if resume:
        journal.load()
    else:
        journal.reset()
    journalled = journal.completed_digests()

    say = progress if progress is not None else (lambda line: None)
    code = code_fingerprint()
    digests = {cell.key: cell.digest(code) for cell in spec}
    if telemetry_dir is not None:
        telemetry_dir = Path(telemetry_dir)
        telemetry_dir.mkdir(parents=True, exist_ok=True)

    completed: dict[str, dict] = {}  # key -> record (with payload)
    sources: dict[str, str] = {}
    observed: dict[str, float] = {}
    pending: list[CellSpec] = []
    for cell in spec:
        digest = digests[cell.key]
        record = cache.get(digest)
        if record is not None:
            observed[digest] = float(record.get("wall_seconds", 0.0))
        if telemetry_dir is not None:
            # Traces only exist if the cell actually runs; never skip.
            pending.append(cell)
        elif record is not None and digest in journalled:
            completed[cell.key] = record
            sources[cell.key] = "journal"
        elif record is not None:
            completed[cell.key] = record
            sources[cell.key] = "cached"
        else:
            pending.append(cell)
    for key, record in completed.items():
        say(f"skip {key} [{sources[key]}]")

    # Deduplicate identical cells (same digest): run once, fan out.
    # With telemetry every cell is its own group so each key gets its
    # own trace file.
    def group_of(cell: CellSpec) -> str:
        if telemetry_dir is not None:
            return f"{digests[cell.key]}::{cell.key}"
        return digests[cell.key]

    by_digest: dict[str, list[CellSpec]] = {}
    for cell in pending:
        by_digest.setdefault(group_of(cell), []).append(cell)
    to_run = [cells[0] for cells in by_digest.values()]

    order = schedule_order(to_run, observed, digests)
    plan = plan_shards(spec.cells, jobs, observed, digests)

    failures: list[dict] = []
    interrupted: str | None = None
    started = time.perf_counter()

    def payload_cell(cell: CellSpec) -> dict:
        out = dict(cell.to_dict(), digest=digests[cell.key])
        if telemetry_dir is not None:
            out["telemetry_dir"] = str(telemetry_dir)
        return out

    def record_completion(record: dict, group: str) -> None:
        digest = record["digest"]
        cache.put(digest, record)
        for sibling in by_digest[group]:
            sib_record = dict(record, key=sibling.key)
            completed[sibling.key] = sib_record
            sources[sibling.key] = "computed"
            journal.append(
                {
                    "key": sibling.key,
                    "family": sibling.family,
                    "seed": sibling.seed,
                    "digest": digest,
                    "result_digest": record["result_digest"],
                    "wall_seconds": record["wall_seconds"],
                }
            )
            say(
                f"done {sibling.key} [computed "
                f"{record['wall_seconds']:.2f}s]"
            )

    if jobs == 1:
        for cell in order:
            try:
                record_completion(execute_cell(payload_cell(cell)), group_of(cell))  # simlint: disable=SL100(host-side sweep cache/journal, not a sim queue; wall_seconds is bench metadata)
            except Exception as exc:  # worker fault or cell bug
                failures.append(
                    {
                        "key": cell.key,
                        "digest": digests[cell.key],
                        "error": repr(exc),
                    }
                )
                say(f"FAIL {cell.key}: {exc!r}")
    elif order:
        ctx = _mp_context(mp_start)
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(order)), mp_context=ctx
        ) as pool:
            futures = {
                pool.submit(execute_cell, payload_cell(cell)): cell
                for cell in order
            }
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in done:
                    cell = futures[future]
                    try:
                        record_completion(future.result(), group_of(cell))  # simlint: disable=SL100(host-side completion order; journal entries are keyed and digest-checked, order is immaterial)
                    except BrokenProcessPool:
                        # The OS killed a worker outright; the pool is
                        # gone, but results journalled so far are safe.
                        interrupted = (
                            "worker pool broke (a worker died hard) while "
                            f"executing {cell.key!r}"
                        )
                    except Exception as exc:
                        failures.append(
                            {
                                "key": cell.key,
                                "digest": digests[cell.key],
                                "error": repr(exc),
                            }
                        )
                        say(f"FAIL {cell.key}: {exc!r}")
                if interrupted is not None:
                    break

    wall_clock = time.perf_counter() - started

    entries = []
    for cell in spec:
        if cell.key not in completed:
            continue
        record = completed[cell.key]
        entries.append(
            {
                "key": cell.key,
                "family": cell.family,
                "seed": cell.seed,
                "digest": digests[cell.key],
                "result_digest": record["result_digest"],
                "wall_seconds": float(record.get("wall_seconds", 0.0)),
                "source": sources[cell.key],
            }
        )
    entries.sort(key=lambda e: e["key"])
    failed_keys = {f["key"] for f in failures}
    pending_keys = sorted(
        cell.key
        for cell in spec
        if cell.key not in completed and cell.key not in failed_keys
    )
    counts = {
        "total": len(spec),
        "computed": sum(1 for e in entries if e["source"] == "computed"),
        "cache_hits": sum(1 for e in entries if e["source"] == "cached"),
        "journal_replays": sum(
            1 for e in entries if e["source"] == "journal"
        ),
        "failed": len(failures),
        "pending": len(pending_keys),
    }
    serial_estimate = sum(e["wall_seconds"] for e in entries)
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "code_version": code,
        "jobs": jobs,
        "resume": resume,
        "cells": entries,
        "failed": sorted(failures, key=lambda f: f["key"]),
        "pending": pending_keys,
        "counts": counts,
        "matrix_digest": _matrix_digest(entries),
        "wall_clock_seconds": wall_clock,
        "serial_seconds_estimate": serial_estimate,
        "speedup_vs_serial": (
            serial_estimate / wall_clock if wall_clock > 0 else 0.0
        ),
        "predicted_makespan_seconds": plan.predicted_makespan,
    }
    run = SweepRun(
        manifest=manifest,
        payloads={
            key: record["payload"] for key, record in completed.items()
        },
    )
    if interrupted is not None:
        raise SweepInterrupted(interrupted, run)
    if failures:
        names = ", ".join(sorted(failed_keys))
        raise SweepInterrupted(f"cell(s) failed: {names}", run)
    return run
