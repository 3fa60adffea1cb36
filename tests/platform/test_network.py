"""Network model: latency, bandwidth, sharing, accounting."""

import pytest

from repro.platform import Network, NetworkSpec


@pytest.fixture
def net(env):
    spec = NetworkSpec(
        latency=0.0, link_bandwidth=100.0, taper_exponent=1.0,
        message_overhead=0.0,
    )
    return Network(env, spec, nodes=4)


def xfer(env, net, nbytes, box, key, messages=1):
    elapsed = yield from net.transfer(nbytes, messages=messages, tag=key)
    box[key] = (env.now, elapsed)


class TestTransfer:
    def test_single_transfer_link_limited(self, env, net):
        box = {}
        env.process(xfer(env, net, 200.0, box, "a"))
        env.run()
        # Bisection 400, but per-transfer cap = link 100 -> 2s.
        assert box["a"][0] == pytest.approx(2.0)

    def test_many_transfers_share_bisection(self, env, net):
        box = {}
        for i in range(8):
            env.process(xfer(env, net, 100.0, box, f"t{i}"))
        env.run()
        # 8 transfers over bisection 400 -> 50 each -> 2s.
        for i in range(8):
            assert box[f"t{i}"][0] == pytest.approx(2.0)

    def test_latency_and_message_overhead(self, env):
        spec = NetworkSpec(
            latency=0.5, link_bandwidth=100.0, taper_exponent=1.0,
            message_overhead=0.1,
        )
        net = Network(env, spec, nodes=2)
        box = {}
        env.process(xfer(env, net, 0.0, box, "empty", messages=3))
        env.run()
        assert box["empty"][0] == pytest.approx(0.5 + 0.3)

    def test_stats_accounting(self, env, net):
        box = {}
        env.process(xfer(env, net, 100.0, box, "x"))
        env.process(xfer(env, net, 50.0, box, "x"))
        env.run()
        assert net.stats.transfers == 2
        assert net.stats.bytes == pytest.approx(150.0)
        count, total = net.stats.by_tag["x"]
        assert count == 2 and total == pytest.approx(150.0)

    def test_taper_reduces_bisection(self, env):
        spec = NetworkSpec(link_bandwidth=100.0, taper_exponent=0.5)
        net = Network(env, spec, nodes=16)
        assert net.fabric.capacity == pytest.approx(400.0)

    def test_pressure_zero_when_idle(self, net):
        assert net.pressure() == 0.0
