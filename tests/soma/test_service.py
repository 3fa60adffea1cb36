"""SOMA service + client over the full RP stack."""

import pickle

import pytest

from repro.conduit import Node
from repro.platform import summit_like
from repro.rp import Client, PilotDescription, Session
from repro.soma import (
    ALL_NAMESPACES,
    HARDWARE,
    SomaClient,
    SomaConfig,
    SomaServiceModel,
    WORKFLOW,
    deploy_soma,
    soma_service_description,
)


@pytest.fixture
def stack():
    session = Session(cluster_spec=summit_like(4), seed=2)
    client = Client(session)
    return session, client


def deploy(session, client, config):
    env = session.env

    def main(env):
        pilot = yield from client.submit_pilot(
            PilotDescription(nodes=2, agent_nodes=1)
        )
        deployment = yield from deploy_soma(client, pilot, config)
        return pilot, deployment

    return env.run(env.process(main(env)))


class TestConfig:
    def test_total_ranks(self):
        cfg = SomaConfig(ranks_per_namespace=2, namespaces=(WORKFLOW, HARDWARE))
        assert cfg.total_ranks == 4

    def test_hardware_frequency_defaults_to_monitoring(self):
        cfg = SomaConfig(monitoring_frequency=45.0)
        assert cfg.effective_hardware_frequency == 45.0
        cfg2 = cfg.with_updates(hardware_frequency=30.0)
        assert cfg2.effective_hardware_frequency == 30.0

    def test_all_namespaces_covered(self):
        assert len(ALL_NAMESPACES) == 4

    def test_negative_shards_rejected_by_name(self):
        # -1 used to pass the `not shards` test: an empty layout, and
        # every client routed to no server.
        with pytest.raises(ValueError, match="shards"):
            SomaConfig(shards=-1)

    def test_sharded_ring_is_built_with_the_config(self):
        with pytest.raises(ValueError, match="vnode"):
            SomaConfig(shards=2, ring_vnodes=0)
        assert SomaConfig(ring_vnodes=0).ring is None

    def test_ring_is_not_part_of_config_identity(self):
        config = SomaConfig(shards=2)
        twin = SomaConfig(shards=2)
        assert config.ring is not twin.ring
        assert config == twin and hash(config) == hash(twin)
        assert "ring=" not in repr(config)
        copy = pickle.loads(pickle.dumps(config))
        assert copy == config and copy.ring.instances == ("s00", "s01")
        assert config.with_updates(shards=3).ring.instances == (
            "s00",
            "s01",
            "s02",
        )
        assert config.with_updates(shards=0).ring is None


class TestServiceDeployment:
    def test_instances_registered_per_namespace(self, stack):
        session, client = stack
        config = SomaConfig(
            namespaces=(WORKFLOW, HARDWARE), monitors=()
        )
        _, deployment = deploy(session, client, config)
        for namespace in config.namespaces:
            assert (
                session.rpc_registry.try_lookup(f"soma.{namespace}")
                is not None
            )
        client.close()

    def test_service_description_resources(self):
        session = Session(cluster_spec=summit_like(2))
        config = SomaConfig(
            ranks_per_namespace=3, namespaces=(WORKFLOW, HARDWARE)
        )
        td = soma_service_description(session, config)
        assert td.total_cores == 6
        assert td.mode == "service"

    def test_publish_and_query(self, stack):
        session, client = stack
        config = SomaConfig(namespaces=(HARDWARE,), monitors=())
        _, deployment = deploy(session, client, config)
        env = session.env

        def publisher(env):
            soma = SomaClient(session, "test-client")
            data = Node()
            data["PROC/cn0001/1.0/Uptime"] = 100
            ok = yield from soma.publish(HARDWARE, data)
            assert ok
            stats = yield from soma.query(HARDWARE, kind="stats")
            return stats

        stats = env.run(env.process(publisher(env)))
        assert stats["records"] == 1
        assert stats["sources"] == 1
        store = deployment.store(HARDWARE)
        assert len(store) == 1
        assert store.latest().data["PROC/cn0001/1.0/Uptime"] == 100
        client.close()

    def test_query_kinds(self, stack):
        session, client = stack
        config = SomaConfig(namespaces=(HARDWARE,), monitors=())
        deploy(session, client, config)
        env = session.env

        def proc(env):
            soma = SomaClient(session, "q-client")
            data = Node()
            data["PROC/x"] = 1
            yield from soma.publish(HARDWARE, data)
            latest = yield from soma.query(HARDWARE, kind="latest")
            merged = yield from soma.query(HARDWARE, kind="merged")
            sources = yield from soma.query(HARDWARE, kind="sources")
            records = yield from soma.query(HARDWARE, kind="records")
            return latest, merged, sources, records

        latest, merged, sources, records = env.run(env.process(proc(env)))
        assert latest.data["PROC/x"] == 1
        assert merged["PROC/x"] == 1
        assert sources == ["q-client"]
        assert len(records) == 1
        client.close()

    def test_publish_non_conduit_rejected_in_response(self, stack):
        session, client = stack
        config = SomaConfig(namespaces=(HARDWARE,), monitors=())
        deploy(session, client, config)
        env = session.env

        def proc(env):
            soma = SomaClient(session, "bad-client")
            server = yield from soma.connect(HARDWARE)
            response = yield from soma._rpc.call(
                server, "publish", body={"not": "conduit"}, payload_bytes=10
            )
            return response

        response = env.run(env.process(proc(env)))
        assert not response.ok
        assert isinstance(response.body, TypeError)
        client.close()

    def test_shutdown_surfaces_publish_failure(self, stack):
        session, client = stack
        config = SomaConfig(namespaces=(HARDWARE,), monitors=())
        deploy(session, client, config)
        env = session.env
        client.close()  # tears the service down

        def proc(env):
            soma = SomaClient(session, "late-client")
            data = Node()
            data["PROC/y"] = 1
            ok = yield from soma.publish(HARDWARE, data)
            return ok, soma.publish_failures

        ok, failures = env.run(env.process(proc(env)))
        assert not ok
        assert failures == 1

    @pytest.mark.parametrize("shards", [0, 1])
    def test_admission_throttles_every_instance(self, stack, shards):
        # The paper's unsharded service gets the same per-instance
        # admission controller a shard does whenever a rate is set.
        session, client = stack
        config = SomaConfig(
            namespaces=(WORKFLOW,),
            monitors=(),
            shards=shards,
            admission_rate=0.001,
            admission_burst=1.0,
        )
        deploy(session, client, config)
        env = session.env

        def proc(env):
            soma = config.make_client(session, "a-client", tenant="t0")
            outcomes = []
            for i in range(5):
                data = Node()
                data["RP/x"] = i
                outcomes.append((yield from soma.publish(WORKFLOW, data)))
            return outcomes, soma.rejected

        outcomes, rejected = env.run(env.process(proc(env)))
        assert outcomes == [True, False, False, False, False]
        assert rejected == 4
        client.close()

    def test_store_raises_for_baseline(self):
        from repro.soma import no_soma

        session = Session(cluster_spec=summit_like(2))
        deployment = no_soma(session)
        assert not deployment.enabled
        with pytest.raises(RuntimeError):
            deployment.store(HARDWARE)


class TestShardedService:
    """The facility-style path: bring_up on raw nodes, no pilot; sharded
    unless a test asks for ``shards=0``."""

    def make_stack(self, shards=2, **config_kwargs):
        session = Session(cluster_spec=summit_like(2, name="fac"), seed=5)
        config = SomaConfig(
            namespaces=(WORKFLOW, HARDWARE),
            monitors=(),
            shards=shards,
            **config_kwargs,
        )
        model = SomaServiceModel(session, config)
        model.bring_up(
            list(session.cluster.nodes[:2]), session.cluster.network
        )
        return session, config, model

    def test_unsharded_bring_up_registers_namespace_names(self):
        session, config, model = self.make_stack(shards=0)
        assert model.ring is None
        for namespace in config.namespaces:
            server = session.rpc_registry.try_lookup(f"soma.{namespace}")
            assert server is model.servers[namespace]
            assert model.store(namespace) is model.stores[namespace]
        assert sorted(session.rpc_registry.names()) == [
            "soma.hardware",
            "soma.workflow",
        ]
        # Namespaces go round-robin over the service nodes.
        assert [model.servers[ns].node.name for ns in config.namespaces] == [
            node.name for node in session.cluster.nodes[:2]
        ]

    def test_bring_up_registers_instance_qualified_names(self):
        session, config, model = self.make_stack()
        for instance in ("s00", "s01"):
            for namespace in config.namespaces:
                name = f"soma.{instance}.{namespace}"
                assert session.rpc_registry.try_lookup(name) is not None
        # Classic unqualified names must NOT exist: a stale unsharded
        # client would otherwise silently talk past the ring.
        assert session.rpc_registry.try_lookup("soma.workflow") is None

    def test_model_and_every_client_share_the_config_ring(self):
        session, config, model = self.make_stack()
        clients = [
            config.make_client(session, name=f"mon@t{i}", tenant=f"t{i}")
            for i in range(3)
        ]
        assert config.ring is not None
        for client in clients:
            assert client.ring is config.ring is model.ring

    def test_instances_on_distinct_nodes(self):
        session, config, model = self.make_stack()
        hosts = {
            server.node.name
            for server in model.servers.values()
        }
        assert len(hosts) == 2

    def test_store_routes_through_the_ring(self):
        session, config, model = self.make_stack()
        ring = model.ring
        for namespace in config.namespaces:
            owner = ring.owner(f"default/{namespace}")
            assert (
                model.store(namespace)
                is model.stores[f"{owner}.{namespace}"]
            )
        workflow_stores = {
            id(model.stores[key])
            for key, _instance, namespace, _slot in config.layout()
            if namespace == WORKFLOW
        }
        assert len(workflow_stores) == 2

    def test_deploy_soma_spreads_shards_over_service_nodes(self):
        session = Session(cluster_spec=summit_like(4), seed=2)
        client = Client(session)
        config = SomaConfig(
            namespaces=(WORKFLOW, HARDWARE), monitors=(), shards=2
        )
        env = session.env

        def main(env):
            pilot = yield from client.submit_pilot(
                PilotDescription(nodes=1, agent_nodes=1, service_nodes=2)
            )
            deployment = yield from deploy_soma(client, pilot, config)
            return pilot, deployment

        pilot, deployment = env.run(env.process(main(env)))
        model = deployment.service_model
        assert sorted(session.rpc_registry.names()) == sorted(
            f"soma.{key}" for key, _instance, _ns, _slot in config.layout()
        )
        hosts = {
            instance: {
                model.servers[f"{instance}.{ns}"].node.name
                for ns in config.namespaces
            }
            for instance in ("s00", "s01")
        }
        # Each instance serves every namespace from one node, and the
        # two instances sit on the pilot's two distinct service nodes.
        assert all(len(nodes) == 1 for nodes in hosts.values())
        assert hosts["s00"] | hosts["s01"] == {
            node.name for node in pilot.service_nodes
        }
        client.close()

    def test_publish_lands_in_owning_shard_only(self):
        session, config, model = self.make_stack()
        env = session.env

        def proc(env):
            soma = config.make_client(session, "t-client", tenant="acme")
            data = Node()
            data["RP/x"] = 1
            ok = yield from soma.publish(WORKFLOW, data)
            assert ok

        env.run(env.process(proc(env)))
        owner = model.ring.owner("acme/workflow")
        assert len(model.store(WORKFLOW, tenant="acme")) == 1
        for key, store in model.stores.items():
            expected = 1 if key == f"{owner}.workflow" else 0
            assert len(store) == expected

    def test_summarize_degrade_annotates_next_publish(self):
        session, config, model = self.make_stack(
            admission_rate=0.1, admission_burst=1.0
        )
        env = session.env

        def proc(env):
            soma = config.make_client(session, "deg-client", tenant="t0")
            soma.degrade = "summarize"
            data = Node()
            data["RP/x"] = 1
            first = yield from soma.publish(WORKFLOW, data)
            # Burst depth 1: the immediate second publish is rejected
            # and degrades to a summarized drop.
            second = yield from soma.publish(WORKFLOW, data)
            yield env.timeout(60.0)  # budget refills
            third = yield from soma.publish(WORKFLOW, data)
            return first, second, third, soma

        first, second, third, soma = env.run(env.process(proc(env)))
        assert (first, second, third) == (True, False, True)
        assert soma.rejected == 1 and soma.gaps == 1
        store = model.store(WORKFLOW, tenant="t0")
        latest = store.latest()
        prefix = "SOMA/degraded/deg-client/workflow"
        assert latest.data[f"{prefix}/samples"] == 1
        assert latest.data[f"{prefix}/bytes"] > 0
        # Annotating the re-published tree must not touch the copy
        # already stored: each record keeps the size it was sent with.
        records = store.records()
        for r in records:
            assert type(r.nbytes) is int and r.nbytes == r.data.nbytes()
        assert store.total_bytes == sum(r.nbytes for r in records)
