"""The DeepDriveMD workflow mini-app (paper Sec 3.2).

Models the four-stage phase of the DDMD mini-app [Kilic et al. 2024]:

1. **Simulation** — 12 tasks, each 1 GPU + c cores; the MD kernel runs
   on the GPU, the CPU cores mostly feed it (low CPU utilization —
   the Fig 9 observation).
2. **ML Training** — 1..k tasks, each 1 GPU + c cores; GPU-bound.
   Parallelized training (k > 1) resizes the data per worker and adds
   MPI_Reduce exchanges, as the paper's tuning exploration did.
3. **Model Selection** — 1 task, CPU-only.
4. **Agent (inference)** — 1 task, 1 GPU + cores.

Stages run strictly in order inside a phase; EnTK chains ``n`` phases
inside each of ``m`` concurrent pipelines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..rp.description import TaskDescription
from ..rp.model import ExecutionContext, RankProfile, TaskModel, TaskResult
from ..sim.core import Interrupt

__all__ = [
    "DDMDParams",
    "GPUStageTaskModel",
    "SelectionTaskModel",
    "ddmd_phase_stages",
    "STAGE_NAMES",
]

STAGE_NAMES = ("simulation", "training", "selection", "agent")


@dataclass(frozen=True, slots=True)
class DDMDParams:
    """Calibration of one DDMD mini-app phase (seconds)."""

    #: Simulation stage: GPU seconds per task and tasks per phase.
    num_sim_tasks: int = 12
    sim_gpu_seconds: float = 210.0
    #: CPU side work of a simulation task (total, spread over its cores).
    sim_cpu_seconds: float = 18.0
    #: Training stage.
    num_train_tasks: int = 1
    train_gpu_seconds: float = 260.0
    train_cpu_seconds: float = 22.0
    #: Parallel training efficiency: with k workers the GPU work per
    #: worker is (1/k) × data + reduce overhead per worker.
    train_reduce_seconds: float = 7.0
    #: Selection stage (CPU only).
    selection_cpu_seconds: float = 45.0
    selection_cores: int = 12
    #: Agent / inference stage.
    agent_gpu_seconds: float = 95.0
    agent_cpu_seconds: float = 10.0
    #: Cores per simulation / training / agent task.
    cores_per_sim_task: int = 6
    cores_per_train_task: int = 6
    cores_per_agent_task: int = 6
    #: Run-to-run duration noise (lognormal sigma).
    noise_sigma: float = 0.03
    #: Memory intensity of the CPU-side work.
    cpu_mem_intensity: float = 0.25

    def with_updates(self, **kwargs) -> "DDMDParams":
        return replace(self, **kwargs)

    def train_gpu_seconds_parallel(self, workers: int) -> float:
        """Per-worker GPU time when training is data-parallel."""
        if workers <= 1:
            return self.train_gpu_seconds
        return (
            self.train_gpu_seconds / workers
            + self.train_reduce_seconds * math.log2(workers + 1)
        )


class GPUStageTaskModel(TaskModel):
    """A GPU-bound stage task: GPU kernel + light CPU feeding work.

    GPU and CPU parts run concurrently; the task ends when both are
    done (the GPU part dominates by construction, so CPU utilization
    stays low — Fig 9).
    """

    def __init__(
        self,
        gpu_seconds: float,
        cpu_seconds: float,
        mem_intensity: float = 0.25,
        noise_sigma: float = 0.03,
        stage: str = "simulation",
    ) -> None:
        self.gpu_seconds = gpu_seconds
        self.cpu_seconds = cpu_seconds
        self.mem_intensity = mem_intensity
        self.noise_sigma = noise_sigma
        self.stage = stage

    def execute(self, ctx: ExecutionContext):
        env = ctx.env
        placement = ctx.placements[0]
        node = placement.node
        noise = float(ctx.stable_rng().lognormal(0.0, self.noise_sigma))
        start = env.now

        gpu_act = node.run_gpu_compute(
            gpus=placement.num_gpus,
            work=self.gpu_seconds * noise * node.spec.gpu_speed,
        )
        cpu_act = None
        if self.cpu_seconds > 0 and placement.num_cores > 0:
            cpu_act = node.run_compute(
                cores=placement.num_cores,
                work=self.cpu_seconds * noise * node.spec.core_speed,
                mem_intensity=self.mem_intensity,
                demand_per_core=0.4,
            )
        try:
            yield gpu_act.done
            if cpu_act is not None:
                yield cpu_act.done
        except Interrupt:
            for act in (gpu_act, cpu_act):
                if act is not None and act.finished_at is None:
                    act.cancel()
            raise

        elapsed = env.now - start
        # Self-report the paper's example figure of merit when the task
        # was instrumented with SOMA's application API (Sec 2.3.2:
        # "a molecular dynamics code might want to capture the
        # atom-timesteps per second").
        metrics = ctx.task.description.metadata.get("app_metrics")
        if metrics is not None and elapsed > 0:
            atom_timesteps = 1.0e6 * self.gpu_seconds * noise
            metrics.record(
                "atom_timesteps_per_s",
                atom_timesteps / elapsed,
                unit="atom-steps/s",
            )
        profile = RankProfile(
            rank=0,
            hostname=node.name,
            seconds_by_region={
                "gpu_kernel": self.gpu_seconds * noise,
                "cpu_feed": self.cpu_seconds * noise,
                "idle_wait": max(
                    0.0, elapsed - self.cpu_seconds * noise
                ),
            },
        )
        return TaskResult(
            exit_code=0,
            rank_profiles=[profile],
            data={"stage": self.stage, "elapsed": elapsed},
        )


class SelectionTaskModel(TaskModel):
    """The CPU-only model-selection stage."""

    #: Memory intensity of the selection work.
    MEM_INTENSITY = 0.35

    def __init__(self, cpu_seconds: float, noise_sigma: float = 0.03) -> None:
        self.cpu_seconds = cpu_seconds
        self.noise_sigma = noise_sigma

    def execute(self, ctx: ExecutionContext):
        placement = ctx.placements[0]
        node = placement.node
        noise = float(ctx.stable_rng().lognormal(0.0, self.noise_sigma))
        act = node.run_compute(
            cores=placement.num_cores,
            work=self.cpu_seconds * noise * node.spec.core_speed,
            mem_intensity=self.MEM_INTENSITY,
        )
        yield act.done
        return TaskResult(exit_code=0, data={"stage": "selection"})


def ddmd_phase_stages(
    params: DDMDParams, phase_index: int = 0, pipeline: int = 0
) -> list[tuple[str, list[TaskDescription]]]:
    """The four stages of one DDMD phase as (name, task descriptions).

    Stage tasks are single-node (1 GPU each for sim/train/agent), as in
    the mini-app's EnTK configuration.
    """
    tag = f"p{pipeline}.ph{phase_index}"

    sim_tasks = [
        TaskDescription(
            name=f"sim-{tag}-{i}",
            model=GPUStageTaskModel(
                params.sim_gpu_seconds,
                params.sim_cpu_seconds,
                params.cpu_mem_intensity,
                params.noise_sigma,
                stage="simulation",
            ),
            ranks=1,
            cores_per_rank=params.cores_per_sim_task,
            gpus_per_rank=1,
            multi_node=False,
            metadata={"stage": "simulation", "pipeline": pipeline,
                      "phase": phase_index},
        )
        for i in range(params.num_sim_tasks)
    ]
    train_tasks = [
        TaskDescription(
            name=f"train-{tag}-{i}",
            model=GPUStageTaskModel(
                params.train_gpu_seconds_parallel(params.num_train_tasks),
                params.train_cpu_seconds,
                params.cpu_mem_intensity,
                params.noise_sigma,
                stage="training",
            ),
            ranks=1,
            cores_per_rank=params.cores_per_train_task,
            gpus_per_rank=1,
            multi_node=False,
            metadata={"stage": "training", "pipeline": pipeline,
                      "phase": phase_index},
        )
        for i in range(params.num_train_tasks)
    ]
    selection_tasks = [
        TaskDescription(
            name=f"select-{tag}",
            model=SelectionTaskModel(
                params.selection_cpu_seconds,
                noise_sigma=params.noise_sigma,
            ),
            ranks=1,
            cores_per_rank=params.selection_cores,
            gpus_per_rank=0,
            multi_node=False,
            metadata={"stage": "selection", "pipeline": pipeline,
                      "phase": phase_index},
        )
    ]
    agent_tasks = [
        TaskDescription(
            name=f"agent-{tag}",
            model=GPUStageTaskModel(
                params.agent_gpu_seconds,
                params.agent_cpu_seconds,
                params.cpu_mem_intensity,
                params.noise_sigma,
                stage="agent",
            ),
            ranks=1,
            cores_per_rank=params.cores_per_agent_task,
            gpus_per_rank=1,
            multi_node=False,
            metadata={"stage": "agent", "pipeline": pipeline,
                      "phase": phase_index},
        )
    ]
    return [
        ("simulation", sim_tasks),
        ("training", train_tasks),
        ("selection", selection_tasks),
        ("agent", agent_tasks),
    ]
