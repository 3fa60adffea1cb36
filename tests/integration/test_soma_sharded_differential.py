"""Sharded-vs-single SOMA differential (ISSUE 9 tentpole proof).

The facility service only counts as landed if sharding is *behaviorally
invisible* to a single tenant: for the same seed, the same workload
monitored through a 2-shard deployment must yield byte-identical
namespace stores (times, sources, byte counts, canonical payload JSON),
trace streams, kernel counters and makespan, compared to the paper's
single-instance baseline.

The pairing that makes this an apples-to-apples comparison:

* baseline ``ranks_per_namespace=2, shards=0`` vs sharded
  ``ranks_per_namespace=1, shards=2`` — the SOMA service *task* has
  the same total rank count either way, so its launch cost
  (``launch_per_rank_cost × ranks``) and placement are identical and
  the deployment timeline does not shift;
* admission control disabled (``admission_rate=None``), per the ISSUE:
  the differential pins the routing/serving path, not backpressure;
* the only trace records excluded are category ``soma.instance`` —
  the sharded bring-up's own placement announcements, which have no
  single-instance counterpart by construction.  Everything else,
  including every publish/gap/task record, must match exactly.

Runs the real OpenFOAM and DDMD generators (reduced sizes) across
seeds 3/17/33.
"""

from dataclasses import replace

import pytest

from repro.experiments.ddmd_exps import run_ddmd_experiment, tuning_experiment
from repro.experiments.openfoam_exps import (
    OpenFOAMExperiment,
    run_openfoam_experiment,
)

from tests.faults.harness import run_digest

SEEDS = (3, 17, 33)
#: The sharded bring-up's placement announcements, which have no
#: single-instance counterpart.
SKIP = ("soma.instance",)

OPENFOAM_BASE = OpenFOAMExperiment(
    name="differential",
    instances_per_config=1,
    compute_nodes=2,
    rank_configs=(20, 41),
    soma_ranks_per_namespace=2,
)
OPENFOAM_SHARDED = replace(
    OPENFOAM_BASE, soma_ranks_per_namespace=1, soma_shards=2
)

DDMD_BASE = tuning_experiment().with_updates(
    name="differential", phases=2, soma_ranks_per_namespace=2
)
DDMD_SHARDED = DDMD_BASE.with_updates(
    soma_ranks_per_namespace=1, soma_shards=2
)


def assert_differential(baseline, sharded) -> None:
    model = sharded.deployment.service_model
    assert model.ring is not None
    # Non-vacuous: the default tenant's namespaces really spread over
    # both instances, and every serving store is instance-qualified.
    owners = {
        model.ring.owner(f"default/{ns}")
        for ns in sharded.deployment.config.namespaces
    }
    assert len(owners) == 2
    stats = model.queue_stats()
    assert all("." in name for name in stats)
    assert sum(s["calls"] for s in stats.values()) > 0
    # The headline: byte-identical stores, traces, kernel counters and
    # makespan.
    assert run_digest(baseline, SKIP) == run_digest(sharded, SKIP)


@pytest.mark.parametrize("seed", SEEDS)
def test_openfoam_sharded_matches_single(seed):
    baseline = run_openfoam_experiment(OPENFOAM_BASE, seed=seed)
    sharded = run_openfoam_experiment(OPENFOAM_SHARDED, seed=seed)
    assert_differential(baseline, sharded)


@pytest.mark.parametrize("seed", SEEDS)
def test_ddmd_sharded_matches_single(seed):
    baseline = run_ddmd_experiment(DDMD_BASE, seed=seed)
    sharded = run_ddmd_experiment(DDMD_SHARDED, seed=seed)
    assert_differential(baseline, sharded)
