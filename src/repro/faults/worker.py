"""Deterministic *process-level* fault injection for sweep workers.

The simulation-level faults in :mod:`repro.faults.plan` run on the
virtual clock; sweeps add a second failure domain — the host processes
executing cells.  A :class:`WorkerFaultSpec` declares, as plain data,
that the worker picking up a given cell must die:

* ``mode="exception"`` — raise :class:`WorkerFault` (an ordinary
  worker crash the pool survives; the cell is recorded as failed);
* ``mode="sigkill"`` — ``SIGKILL`` the worker's own process (the hard
  variant: the whole pool tears down mid-sweep, exactly like an OOM
  kill or a node reaping a job).

The spec travels through the ``REPRO_SWEEP_FAULT`` environment variable
so it reaches pool workers regardless of start method.  Faults fire
*once*: before firing, the injector exclusively creates ``once_path``
on disk, so a re-run sweep (same environment, same spec) finds the
marker and runs clean — which is what the crash/re-run battery relies
on to prove recovery without un-arming the fault.
"""

from __future__ import annotations

import json
import os
import signal
from dataclasses import dataclass

__all__ = ["WorkerFault", "WorkerFaultSpec", "ENV_VAR", "check_worker_fault"]

ENV_VAR = "REPRO_SWEEP_FAULT"

_MODES = ("exception", "sigkill")


class WorkerFault(RuntimeError):
    """An injected worker-process fault (the soft, catchable variant)."""


@dataclass(frozen=True, slots=True)
class WorkerFaultSpec:
    """Kill the worker that starts executing ``cell`` (fire once)."""

    cell: str
    mode: str = "exception"
    #: Marker file created (exclusively) before firing; an existing
    #: marker disarms the fault, making the injection one-shot even
    #: across a re-run with the same environment.
    once_path: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown worker-fault mode {self.mode!r}")

    def to_env(self) -> str:
        return json.dumps(
            {"cell": self.cell, "mode": self.mode, "once_path": self.once_path}
        )

    @classmethod
    def from_env(cls, value: str) -> "WorkerFaultSpec":
        data = json.loads(value)
        return cls(
            cell=data["cell"],
            mode=data.get("mode", "exception"),
            once_path=data.get("once_path"),
        )


def _spec_from_environ() -> WorkerFaultSpec | None:
    raw = os.environ.get(ENV_VAR, "").strip()
    if not raw:
        return None
    return WorkerFaultSpec.from_env(raw)


def check_worker_fault(cell_key: str) -> None:
    """Fire the armed worker fault if it targets ``cell_key``.

    Called by sweep workers when a cell starts executing, so the death
    lands mid-sweep with the cell claimed but not cached.
    """
    spec = _spec_from_environ()
    if spec is None or spec.cell != cell_key:
        return
    if spec.once_path is not None:
        try:
            # Exclusive create: exactly one worker wins the right to
            # fire, and a pre-existing marker means "already fired".
            with open(spec.once_path, "x", encoding="utf-8") as marker:
                marker.write(f"worker fault fired for cell {cell_key}\n")
        except FileExistsError:
            return
    if spec.mode == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    raise WorkerFault(f"injected worker fault while executing cell {cell_key!r}")
