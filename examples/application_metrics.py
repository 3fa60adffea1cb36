#!/usr/bin/env python3
"""SOMA's application namespace: self-reported figures of merit (Sec 2.3.2).

The paper: "a molecular dynamics code might want to capture the
atom-timesteps per second ... capturing this data typically requires
application instrumentation with SOMA's API".  This example deploys
SOMA with the ``application`` namespace, wraps the simulation tasks of
one DDMD phase in :class:`~repro.soma.InstrumentedModel`, and reads
each task's ``atom_timesteps_per_s`` back from the application store.

Run:  python examples/application_metrics.py
"""

from repro import Client, PilotDescription, Session, SomaConfig
from repro.platform import summit_like
from repro.soma import APPLICATION, WORKFLOW, InstrumentedModel, deploy_soma
from repro.workloads import DDMDParams, ddmd_phase_stages

SIM_TASKS = 4
METRIC = "atom_timesteps_per_s"


def main() -> None:
    session = Session(cluster_spec=summit_like(4), seed=5)
    client = Client(session)
    env = session.env

    def workflow(env):
        pilot = yield from client.submit_pilot(
            PilotDescription(nodes=2, agent_nodes=1)
        )
        deployment = yield from deploy_soma(
            client,
            pilot,
            SomaConfig(namespaces=(WORKFLOW, APPLICATION), monitors=()),
        )
        # The DDMD simulation model records atom-timesteps per second
        # through the handle the wrapper gives it; the wrapper publishes
        # what it recorded when the task ends.
        stages = dict(ddmd_phase_stages(DDMDParams(num_sim_tasks=SIM_TASKS)))
        sims = stages["simulation"]
        for description in sims:
            description.model = InstrumentedModel(
                session, deployment.config, description.model
            )
        tasks = client.submit_tasks(sims)
        yield from client.wait_tasks(tasks)
        return deployment, tasks

    deployment, tasks = env.run(env.process(workflow(env)))
    client.close()
    env.run()

    store = deployment.store(APPLICATION)
    print(f"{len(store)} record(s) in the '{APPLICATION}' namespace")
    print(f"{'task':<14} {'exec time (s)':>13} {METRIC:>22}")
    for task in tasks:
        path = f"APP/{task.uid}/{METRIC}"
        for record in store.records():
            if path in record.data:
                for _seq, sample in record.data[path].children():
                    print(
                        f"{task.uid:<14} {task.execution_time:>13.1f} "
                        f"{float(sample['value']):>16,.0f} {sample['unit']}"
                    )
    print(
        "\nThe simulation model does 1e6 atom-timesteps per second of GPU "
        "work, so a task whose GPU work was not held up reports that rate."
    )


if __name__ == "__main__":
    main()
