"""OpenFOAM's per-rank TAU profiles draw their MPI-wait shares in rank order.

``_make_profiles`` must give the profiles, and leave the generator in
the state, that one ``dirichlet`` call per rank gives: the reference
loop below.  ``ctx.rng`` is the session-wide stream, so a change in how
many values it draws would move every later draw of the run.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.rp.model import RankProfile
from repro.workloads.openfoam import OpenFOAMTaskModel

ALPHA = (6.0, 5.0, 1.4, 0.9)


def context(ranks: int, rng: np.random.Generator) -> SimpleNamespace:
    """The two things ``_make_profiles`` reads: ``rng`` and ``rank_map``."""
    hosts = [SimpleNamespace(node=SimpleNamespace(name=f"cn{i:04d}")) for i in range(4)]
    rank_map = [(rank, hosts[rank * len(hosts) // ranks]) for rank in range(ranks)]
    return SimpleNamespace(rng=rng, rank_map=lambda: rank_map)


def reference(ctx, multipliers, compute_elapsed, comm_elapsed):
    """One ``dirichlet`` call per rank, as each rank's profile is made."""
    profiles = []
    mult = multipliers / multipliers.max()
    for (rank, placement), m in zip(ctx.rank_map(), mult):
        compute = compute_elapsed * float(m)
        wait = compute_elapsed * float(1.0 - m) + comm_elapsed
        shares = ctx.rng.dirichlet(ALPHA)
        regions = {
            region: compute * share
            for region, share in OpenFOAMTaskModel.COMPUTE_REGIONS
        }
        regions["MPI_Recv"] = wait * float(shares[0])
        regions["MPI_Waitall"] = wait * float(shares[1])
        regions["MPI_Allreduce"] = wait * float(shares[2])
        regions["MPI_Isend"] = wait * float(shares[3])
        profiles.append(
            RankProfile(rank=rank, hostname=placement.node.name, seconds_by_region=regions)
        )
    return profiles


@pytest.mark.parametrize("ranks", [1, 2, 42, 77])
@pytest.mark.parametrize("seed", [0, 3, 17, 2024])
def test_profiles_and_stream_match_one_draw_per_rank(ranks, seed):
    multipliers = 1.0 + 0.1 * np.random.default_rng(seed + 1).random(ranks)
    got_rng = np.random.default_rng(seed)
    want_rng = np.random.default_rng(seed)
    got = OpenFOAMTaskModel()._make_profiles(
        context(ranks, got_rng), multipliers, 12.5, 3.25
    )
    want = reference(context(ranks, want_rng), multipliers, 12.5, 3.25)
    assert got == want
    assert [list(p.seconds_by_region) for p in got] == [
        list(p.seconds_by_region) for p in want
    ]
    assert all(
        type(v) is float for p in got for v in p.seconds_by_region.values()
    )
    # The stream is where per-rank draws leave it.
    assert got_rng.random() == want_rng.random()
