"""Golden: every record a small facility run stores, hashed.

The facility e2e golden hashes only ``FacilityResult.payload()``,
which counts each store's records but never reads one.  This golden
reads them all: each store key, and each record's time, source, size
and tree (``data.to_json()``), in store order.

The run is CI's facility smoke shape under the canonical chaos plan,
with an admission budget small enough that the service refuses SOMA
clients: their next accepted publishes carry ``SOMA/health`` and, in
``summarize`` mode, ``SOMA/degraded`` leaves.
"""

from __future__ import annotations

import hashlib

from repro.experiments import facility
from repro.experiments.facility import FacilitySpec, facility_chaos_plan, run_facility
from repro.soma.service import SomaServiceModel

from tests.golden.helpers import check_golden

SEED = 3


def store_lines(monkeypatch, degrade: str) -> str:
    spec = FacilitySpec(
        pilots=24,
        shards=2,
        service_nodes=2,
        tasks_per_pilot=60,
        concurrency=4,
        admission_rate=0.02,
        admission_burst=1.0,
        degrade=degrade,
    )
    models = []

    def recording(*args, **kwargs):
        model = SomaServiceModel(*args, **kwargs)
        models.append(model)
        return model

    monkeypatch.setattr(facility, "SomaServiceModel", recording)
    run_facility(spec, seed=SEED, fault_plan=facility_chaos_plan(spec))
    (model,) = models
    digest = hashlib.sha256()
    records = health = degraded = 0
    for key, store in sorted(model.stores.items()):
        for record in store:
            tree = record.data
            records += 1
            health += "SOMA/health" in tree
            degraded += "SOMA/degraded" in tree
            digest.update(
                f"{key}|{record.time!r}|{record.source}|{record.nbytes!r}|"
                f"{tree.to_json()}\n".encode()
            )
    return (
        f"{degrade}: {records} records, {health} with SOMA/health, "
        f"{degraded} with SOMA/degraded\nsha256 {digest.hexdigest()}\n"
    )


def test_facility_store_golden(monkeypatch):
    check_golden(
        "facility_store_seed3.txt",
        store_lines(monkeypatch, "drop") + store_lines(monkeypatch, "summarize"),
    )
