"""Crash/re-run battery: kill a worker mid-sweep, re-run, lose nothing.

Two injected failure modes via :mod:`repro.faults.worker`:

* ``exception`` — the worker raises; the pool survives, the cell is
  recorded failed, and the sweep raises :class:`SweepInterrupted`.
* ``sigkill`` — the worker dies hard; the whole pool breaks mid-sweep
  (in-flight siblings are lost too), exactly like an OOM kill.

In both cases the result cache must hold exactly the completed cells, a
plain re-run must re-execute *only* what never completed (the cached
cells come back as cache hits, counted), and the final digests must
equal an uninterrupted run's.
"""

from __future__ import annotations

import pytest

from repro.faults.worker import ENV_VAR, WorkerFault, WorkerFaultSpec, check_worker_fault
from repro.sweep import SweepInterrupted, run_sweep

from .util import cells_signature, mini_cell

#: Equal-cost cells tie-break by key in the LPT order, so the fault
#: target (sorting last) is picked up only after the pool has chewed
#: through most of the matrix — the kill lands mid-sweep, not at the
#: start.
CHAOS_SEEDS = (3, 17, 33, 47, 51, 62)
KILL_KEY = f"mini-overload-s{max(CHAOS_SEEDS)}"


def chaos_matrix():
    return [mini_cell(seed) for seed in sorted(CHAOS_SEEDS)]


def arm_fault(monkeypatch, tmp_path, mode: str) -> None:
    spec = WorkerFaultSpec(
        cell=KILL_KEY, mode=mode, once_path=str(tmp_path / "fault.fired")
    )
    monkeypatch.setenv(ENV_VAR, spec.to_env())


def run_reference(tmp_path):
    return run_sweep(chaos_matrix(), jobs=1, sweep_dir=tmp_path / "reference")


@pytest.mark.parametrize("mode", ["exception", "sigkill"])
def test_killed_sweep_resumes_without_reexecution(
    monkeypatch, tmp_path, mode
):
    reference = run_reference(tmp_path)
    all_keys = {c.key for c in chaos_matrix()}

    sweep_dir = tmp_path / "chaos"
    arm_fault(monkeypatch, tmp_path, mode)
    with pytest.raises(SweepInterrupted) as excinfo:
        run_sweep(chaos_matrix(), jobs=2, sweep_dir=sweep_dir)
    partial = excinfo.value.run.manifest

    # The partial run completed a clean subset: never the killed cell,
    # and the fault marker proves the injection fired.
    completed_keys = {e["key"] for e in partial["cells"]}
    assert KILL_KEY not in completed_keys
    assert completed_keys <= all_keys
    assert (tmp_path / "fault.fired").exists()
    if mode == "exception":
        # Soft fault: pool survives, every other cell completes and the
        # victim is recorded failed.
        assert [f["key"] for f in partial["failed"]] == [KILL_KEY]
        assert completed_keys == all_keys - {KILL_KEY}
    else:
        # Hard fault: the pool broke, so in-flight siblings may be lost
        # too — but the equal-cost tie-break means the kill landed late.
        assert partial["counts"]["pending"] >= 1
        assert len(completed_keys) >= len(all_keys) - 3

    # Re-run with the fault still armed: the once-marker disarms it.
    rerun = run_sweep(chaos_matrix(), jobs=2, sweep_dir=sweep_dir)
    manifest = rerun.manifest

    # No cell ran twice: everything cached comes back (counted), and
    # only the never-completed remainder was computed.
    sources = {e["key"]: e["source"] for e in manifest["cells"]}
    assert set(sources) == all_keys
    assert {k for k, s in sources.items() if s == "cached"} == completed_keys
    assert {k for k, s in sources.items() if s == "computed"} == (
        all_keys - completed_keys
    )
    assert manifest["counts"]["cache_hits"] == len(completed_keys)
    assert manifest["counts"]["computed"] == len(all_keys) - len(
        completed_keys
    )
    assert manifest["counts"]["failed"] == 0

    # And recovery is exact: digests equal the uninterrupted run's.
    assert manifest["matrix_digest"] == reference.manifest["matrix_digest"]
    assert cells_signature(manifest) == cells_signature(reference.manifest)


def test_worker_fault_spec_roundtrip_and_fire_once(monkeypatch, tmp_path):
    spec = WorkerFaultSpec(
        cell="c", mode="exception", once_path=str(tmp_path / "m")
    )
    assert WorkerFaultSpec.from_env(spec.to_env()) == spec
    with pytest.raises(ValueError):
        WorkerFaultSpec(cell="c", mode="nonsense")

    monkeypatch.setenv(ENV_VAR, spec.to_env())
    # Wrong cell: no fire.
    check_worker_fault("other")
    assert not (tmp_path / "m").exists()
    # Right cell: fires exactly once, then the marker disarms it.
    with pytest.raises(WorkerFault):
        check_worker_fault("c")
    assert (tmp_path / "m").exists()
    check_worker_fault("c")  # second call is a no-op

    monkeypatch.delenv(ENV_VAR)
    check_worker_fault("c")  # unarmed: no-op
