"""Shared fixtures for the sweep test battery.

``mini_matrix`` is a deliberately small but *real* matrix — fig4-style
OpenFOAM overload cells shrunk to 2 instances per configuration on 4
nodes, two rank configurations — one cell per seed.  Small
enough that the parity battery runs it at three job counts, real
enough that a payload digest covers actual simulation output.
"""

from __future__ import annotations

from repro.sweep import CellSpec, SweepSpec

MINI_SEEDS = (3, 17, 33)

MINI_OVERRIDES = {
    "instances_per_config": 2,
    "compute_nodes": 4,
    "rank_configs": [20, 41],
}


def mini_cell(seed: int, key: str | None = None) -> CellSpec:
    return CellSpec(
        key=key or f"mini-overload-s{seed}",
        family="openfoam",
        seed=seed,
        params={"experiment": "overload", "overrides": dict(MINI_OVERRIDES)},
    )


def mini_matrix(seeds=MINI_SEEDS) -> SweepSpec:
    return SweepSpec(mini_cell(seed) for seed in seeds)


def cells_signature(manifest: dict) -> list[dict]:
    """Timing-free view of a manifest's completed cells (for parity)."""
    return [
        {
            k: entry[k]
            for k in ("key", "family", "seed", "digest", "result_digest")
        }
        for entry in manifest["cells"]
    ]
