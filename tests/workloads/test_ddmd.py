"""DDMD mini-app model: stages, GPU residency, parallel training."""

from repro.platform import summit_like
from repro.rp import Client, PilotDescription, Session
from repro.workloads import DDMDParams, STAGE_NAMES, ddmd_phase_stages


class TestParams:
    def test_parallel_training_reduces_per_worker_time(self):
        params = DDMDParams()
        t1 = params.train_gpu_seconds_parallel(1)
        t4 = params.train_gpu_seconds_parallel(4)
        assert t4 < t1
        # But not perfectly: reduce overhead.
        assert t4 > t1 / 4

    def test_with_updates(self):
        params = DDMDParams().with_updates(num_train_tasks=4)
        assert params.num_train_tasks == 4


class TestStageConstruction:
    def test_four_stages_in_order(self):
        stages = ddmd_phase_stages(DDMDParams())
        assert [name for name, _ in stages] == list(STAGE_NAMES)

    def test_task_counts(self):
        params = DDMDParams(num_sim_tasks=12, num_train_tasks=2)
        stages = dict(ddmd_phase_stages(params))
        assert len(stages["simulation"]) == 12
        assert len(stages["training"]) == 2
        assert len(stages["selection"]) == 1
        assert len(stages["agent"]) == 1

    def test_resource_geometry(self):
        params = DDMDParams(cores_per_sim_task=3)
        stages = dict(ddmd_phase_stages(params))
        sim = stages["simulation"][0]
        assert sim.gpus_per_rank == 1
        assert sim.cores_per_rank == 3
        assert not sim.multi_node
        selection = stages["selection"][0]
        assert selection.gpus_per_rank == 0

    def test_metadata_tags(self):
        stages = ddmd_phase_stages(DDMDParams(), phase_index=2, pipeline=7)
        for _, tasks in stages:
            for td in tasks:
                assert td.metadata["phase"] == 2
                assert td.metadata["pipeline"] == 7


def run_phase(params, nodes=2, seed=2):
    session = Session(cluster_spec=summit_like(nodes + 1), seed=seed)
    client = Client(session)
    env = session.env

    def main(env):
        yield from client.submit_pilot(
            PilotDescription(nodes=nodes, agent_nodes=1)
        )
        results = {}
        for name, tds in ddmd_phase_stages(params):
            start = env.now
            tasks = client.submit_tasks(tds)
            yield from client.wait_tasks(tasks)
            results[name] = (env.now - start, tasks)
        return results

    results = env.run(env.process(main(env)))
    client.close()
    return results


class TestExecution:
    def test_phase_runs_and_stage_order_holds(self):
        results = run_phase(DDMDParams())
        assert set(results) == set(STAGE_NAMES)
        for name, (duration, tasks) in results.items():
            assert duration > 0
            assert all(t.state == "DONE" for t in tasks)

    def test_sim_stage_runs_in_two_waves(self):
        """12 GPUs needed, 12 available on 2 nodes: one wave; on 1
        node (6 GPUs): two waves."""
        params = DDMDParams(noise_sigma=0.0)
        two_nodes = run_phase(params, nodes=2)
        one_node = run_phase(params, nodes=1)
        assert (
            one_node["simulation"][0]
            > two_nodes["simulation"][0] + params.sim_gpu_seconds * 0.7
        )

    def test_gpu_bound_low_cpu_utilization(self):
        """Fig 9: GPU does the work; CPU utilization stays low."""
        session = Session(cluster_spec=summit_like(3), seed=2)
        client = Client(session)
        env = session.env
        params = DDMDParams()

        def main(env):
            pilot = yield from client.submit_pilot(
                PilotDescription(nodes=2, agent_nodes=1)
            )
            stages = ddmd_phase_stages(params)
            sim_tasks = client.submit_tasks(dict(stages)["simulation"])
            yield from client.wait_tasks(sim_tasks)
            return pilot

        pilot = env.run(env.process(main(env)))
        for node in pilot.compute_nodes:
            elapsed = env.now
            cpu_util = node.busy_cores.integral / (elapsed * node.total_cores)
            gpu_util = node.busy_gpus.integral / (elapsed * node.total_gpus)
            assert cpu_util < 0.25
            assert gpu_util > cpu_util
        client.close()

    def test_profiles_report_gpu_kernel(self):
        results = run_phase(DDMDParams())
        _, sim_tasks = results["simulation"]
        profile = sim_tasks[0].result.rank_profiles[0]
        assert profile.seconds_by_region["gpu_kernel"] > 0
