"""Fig. 11 at Summit scale: the event kernel under a full machine.

The paper's Scaling B runs top out at 512 nodes; this test pushes the
same monitored bag-of-tasks shape to a four-digit node count and a
six-digit task count and pins the kernel-level evidence:

* the run finishes under a wall-clock ceiling (the event kernel, not
  the workload, is the scaling risk),
* the pending-set peak actually reached event-kernel scale,
* dead timeout clocks were skipped as tombstones, not executed.

The default lane runs a reduced configuration to keep the suite
responsive; set ``REPRO_FULL_SCALE=1`` for the paper-scale 1024-node,
100k-task run (a few minutes).  The run keeps every task's history and
its whole trace, so the test prints its wall time and peak RSS
(``ru_maxrss``); run it with ``-s`` to see them.
"""

from __future__ import annotations

import os
import resource
import time

import pytest

from repro.experiments import run_workflow
from repro.soma import HARDWARE, WORKFLOW, SomaConfig
from repro.workloads import uniform_bag

pytestmark = pytest.mark.slow

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE", "0") == "1"

if FULL_SCALE:
    NODES = 1024
    TASKS = 100_000
    WALL_CEILING = 900.0  # "completing in minutes"
    PEAK_FLOOR = 40_000
else:
    NODES = 128
    TASKS = 10_000
    WALL_CEILING = 120.0
    PEAK_FLOOR = 5_000

MONITORING = SomaConfig(
    namespaces=(WORKFLOW, HARDWARE),
    monitors=("proc",),
    monitoring_frequency=60.0,
)


def test_fig11_scale_event_kernel():
    def workload(client, deployment):
        tasks = client.submit_tasks(uniform_bag(TASKS, duration=180.0))
        yield from client.wait_tasks(tasks)
        return {"done": len(tasks)}

    start = time.perf_counter()
    result = run_workflow(
        workload,
        nodes=NODES,
        soma_config=MONITORING,
        seed=11,
    )
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(
        f"\nfig11-scale: {NODES} nodes / {TASKS} tasks: wall {wall:.1f} s, "
        f"ru_maxrss {peak_mb:.1f} MB"
    )

    assert result.payload["done"] == TASKS
    assert all(
        t.state == "DONE" for t in result.application_tasks
    ), "not every task completed"

    counters = result.session.env.kernel_counters()

    # The run must actually have exercised event-kernel scale.
    assert counters["events_executed"] > TASKS * 10
    assert counters["peak_heap_size"] >= PEAK_FLOOR, counters
    # Dead retry/timeout clocks must be reaped lazily, not executed.
    assert counters["tombstones_skipped"] > 0

    assert wall < WALL_CEILING, (
        f"fig11-scale run took {wall:.1f}s "
        f"(ceiling {WALL_CEILING}s at {NODES} nodes / {TASKS} tasks)"
    )
