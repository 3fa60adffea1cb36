"""The OpenFOAM / AdditiveFOAM melt-pool task model (paper Sec 3.1).

The ExaAM workflow's tasks are AdditiveFOAM simulations: iterative,
memory-bound CFD solves with halo exchanges and global reductions.
The model decomposes a fixed problem (strong scaling) over ``ranks``
MPI ranks and executes as alternating compute/communication supersteps
on the simulated platform:

* compute progresses through each node's memory-bandwidth contention
  domain (co-located ranks slow each other — the Fig 6 effect);
* communication is charged analytically (latency × iterations ×
  log2(ranks) for reductions, plus halo surface volume) and its
  cross-node volume crosses the shared fabric (interference with
  monitoring traffic);
* per-rank TAU profiles (compute + MPI_Recv/MPI_Waitall/MPI_Allreduce/
  MPI_Isend) are synthesized from the same decomposition, dominated by
  MPI_Recv and MPI_Waitall as in Fig 5.

Strong-scaling shape: per-rank work falls as 1/ranks while the
communication terms grow with ranks and with the number of nodes
spanned — so scaling 20 -> 41 -> 82 ranks pays off and 82 -> 164
mostly does not, matching Fig 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..platform.node import Allocation
from ..rp.description import TaskDescription
from ..rp.model import ExecutionContext, RankProfile, TaskModel, TaskResult
from ..sim.core import Interrupt

__all__ = ["OpenFOAMParams", "OpenFOAMTaskModel", "openfoam_task_description"]


@dataclass(frozen=True, slots=True)
class OpenFOAMParams:
    """Calibration of the melt-pool solve (all times in seconds)."""

    #: Total serial-equivalent work of the solve, in core-seconds.
    total_work: float = 16000.0
    #: Serial (non-decomposable) fraction of the work.
    serial_fraction: float = 0.015
    #: Fraction of per-rank time that is memory-bandwidth bound.
    mem_intensity: float = 0.55
    #: Relative memory-bandwidth demand per rank (1.0 = one core's worth).
    demand_per_core: float = 1.3
    #: Solver iterations (halo exchange + reduction per iteration).
    iterations: int = 400
    #: Reduction latency cost per iteration per log2(ranks), seconds.
    reduce_alpha: float = 1.2e-2
    #: Halo exchange cost per iteration per rank-surface unit, seconds.
    halo_beta: float = 1.6e-2
    #: Exponent of the per-rank surface growth with rank count.
    surface_exponent: float = 0.42
    #: Extra halo cost factor for ranks with off-node neighbours.
    internode_penalty: float = 4.0
    #: Halo bytes exchanged per rank per iteration (surface data).
    halo_bytes_per_rank: float = 2.0e5
    #: Per-rank load imbalance (sigma of lognormal multiplier).
    imbalance_sigma: float = 0.06
    #: Number of compute/comm supersteps the execution is split into.
    supersteps: int = 4

    def with_updates(self, **kwargs) -> "OpenFOAMParams":
        return replace(self, **kwargs)

    # -- analytic model (used by tests and for profile synthesis) --------

    def compute_seconds_per_rank(self, ranks: int) -> float:
        """Uncontended per-rank compute time."""
        parallel = self.total_work * (1.0 - self.serial_fraction) / ranks
        serial = self.total_work * self.serial_fraction / max(1, ranks) ** 0.5
        return parallel + serial

    def surface_per_rank(self, ranks: int) -> float:
        """Relative per-rank halo cost as the subdomain shrinks.

        Ideal 3-D decomposition gives p^(1/3); AdditiveFOAM's melt-pool
        meshes decompose far from ideally (adaptive refinement around
        the pool), so the effective exponent is steeper.
        """
        return ranks ** self.surface_exponent

    def comm_seconds(self, ranks: int, nodes: int) -> float:
        """Analytic per-rank communication time for the whole solve."""
        reduce_t = self.iterations * self.reduce_alpha * math.log2(max(2, ranks))
        internode = 1.0 + (self.internode_penalty - 1.0) * (
            0.0 if nodes <= 1 else 1.0 - 1.0 / nodes
        )
        halo_t = (
            self.iterations
            * self.halo_beta
            * self.surface_per_rank(ranks)
            * internode
        )
        return reduce_t + halo_t

    def ideal_time(self, ranks: int, nodes: int) -> float:
        """Uncontended end-to-end estimate (for tests/calibration)."""
        return self.compute_seconds_per_rank(ranks) + self.comm_seconds(
            ranks, nodes
        )


class OpenFOAMTaskModel(TaskModel):
    """One AdditiveFOAM melt-pool solve as an RP task."""

    #: Compute regions reported in the TAU profile, with their share of
    #: the compute time (AdditiveFOAM-flavoured kernel names).
    COMPUTE_REGIONS = (
        ("solveMomentum", 0.34),
        ("solveEnergy", 0.27),
        ("thermodynamics", 0.17),
        ("meshUpdate", 0.12),
        ("io_checkpoint", 0.10),
    )

    def __init__(self, params: OpenFOAMParams | None = None) -> None:
        self.params = params or OpenFOAMParams()

    def execute(self, ctx: ExecutionContext):
        params = self.params
        env = ctx.env
        ranks = ctx.task.description.ranks
        nodes_used = ctx.num_nodes
        rng = ctx.rng
        start = env.now

        # Per-rank imbalance multipliers; the critical path per node is
        # its slowest rank.
        multipliers = rng.lognormal(
            mean=0.0, sigma=params.imbalance_sigma, size=ranks
        )
        rank_map = ctx.rank_map()
        per_node_mult: dict[Allocation, float] = {}
        for (rank, placement), mult in zip(rank_map, multipliers):
            per_node_mult[placement] = max(
                per_node_mult.get(placement, 0.0), float(mult)
            )

        compute_per_rank = params.compute_seconds_per_rank(ranks)
        comm_total = params.comm_seconds(ranks, nodes_used)
        steps = max(1, params.supersteps)
        halo_volume = (
            params.halo_bytes_per_rank * params.iterations * ranks / steps
        )
        # Only traffic between nodes crosses the fabric.
        cross_fraction = 0.0 if nodes_used <= 1 else 1.0 - 1.0 / nodes_used

        compute_elapsed = 0.0
        comm_elapsed = 0.0
        for _step in range(steps):
            # -- compute superstep (contention-sensitive) -----------------
            t0 = env.now
            acts = []
            for placement in ctx.placements:
                node = placement.node
                work = (
                    compute_per_rank
                    / steps
                    * per_node_mult.get(placement, 1.0)
                    * node.spec.core_speed
                )
                acts.append(
                    node.run_compute(
                        cores=placement.num_cores,
                        work=work,
                        mem_intensity=params.mem_intensity,
                        demand_per_core=params.demand_per_core,
                    )
                )
            try:
                for act in acts:
                    yield act.done
            except Interrupt:
                for act in acts:
                    if act.finished_at is None:
                        act.cancel()
                raise
            compute_elapsed += env.now - t0

            # -- communication superstep ----------------------------------
            t0 = env.now
            yield env.timeout(comm_total / steps)
            if cross_fraction > 0:
                yield from ctx.network.transfer(
                    halo_volume * cross_fraction,
                    messages=max(1, ranks // 4),
                    tag=f"halo:{ctx.task.uid}",
                )
            comm_elapsed += env.now - t0

        elapsed = env.now - start
        profiles = self._make_profiles(
            ctx, multipliers, compute_elapsed, comm_elapsed
        )
        return TaskResult(
            exit_code=0,
            rank_profiles=profiles,
            data={
                "ranks": ranks,
                "nodes_used": nodes_used,
                "elapsed": elapsed,
                "compute_seconds": compute_elapsed,
                "comm_seconds": comm_elapsed,
            },
        )

    def _make_profiles(
        self,
        ctx: ExecutionContext,
        multipliers,
        compute_elapsed: float,
        comm_elapsed: float,
    ) -> list[RankProfile]:
        """Synthesize the per-rank TAU view of this execution.

        Faster ranks wait longer in MPI (they sit in MPI_Recv /
        MPI_Waitall for the stragglers), which is exactly the Fig 5
        pattern: total time per rank is flat, the split shifts.
        """
        rng = ctx.rng
        profiles: list[RankProfile] = []
        mult = multipliers / multipliers.max()
        for (rank, placement), m in zip(ctx.rank_map(), mult):
            compute = compute_elapsed * float(m)
            wait = compute_elapsed * float(1.0 - m) + comm_elapsed
            # Split wait across MPI calls; recv/waitall dominate.
            shares = rng.dirichlet((6.0, 5.0, 1.4, 0.9))
            regions: dict[str, float] = {}
            for (region, share) in self.COMPUTE_REGIONS:
                regions[region] = compute * share
            regions["MPI_Recv"] = wait * float(shares[0])
            regions["MPI_Waitall"] = wait * float(shares[1])
            regions["MPI_Allreduce"] = wait * float(shares[2])
            regions["MPI_Isend"] = wait * float(shares[3])
            profiles.append(
                RankProfile(
                    rank=rank,
                    hostname=placement.node.name,
                    seconds_by_region=regions,
                )
            )
        return profiles


def openfoam_task_description(
    ranks: int,
    params: OpenFOAMParams | None = None,
    name: str | None = None,
) -> TaskDescription:
    """An RP task description for one OpenFOAM solve with ``ranks``."""
    return TaskDescription(
        name=name or f"openfoam-{ranks}r",
        model=OpenFOAMTaskModel(params),
        ranks=ranks,
        cores_per_rank=1,
        gpus_per_rank=0,
        multi_node=True,
        metadata={"workload": "openfoam", "ranks": ranks},
    )
