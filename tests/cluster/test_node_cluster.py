"""Node model, cluster assembly, failure injection."""

import pytest

from repro.cluster import Cluster, Node, NodeSpec, make_cluster
from repro.common.errors import ConfigError
from repro.simcore import Simulator


class TestNodeSpec:
    def test_defaults_valid(self):
        spec = NodeSpec()
        assert spec.cores >= 1 and spec.speed > 0

    def test_invalid_cores(self):
        with pytest.raises(ValueError):
            NodeSpec(cores=0)

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            NodeSpec(speed=0)

    def test_invalid_disk(self):
        with pytest.raises(ValueError):
            NodeSpec(disk_bw=0)


class TestNodeCompute:
    def test_compute_duration(self):
        sim = Simulator()
        n = Node(sim, "n0", NodeSpec(cores=1, speed=2.0))
        ev = n.compute(4.0)
        sim.run()
        assert sim.now == pytest.approx(2.0)
        assert ev.triggered

    def test_cores_limit_concurrency(self):
        sim = Simulator()
        n = Node(sim, "n0", NodeSpec(cores=2, speed=1.0))
        for _ in range(4):
            n.compute(1.0)
        sim.run()
        assert sim.now == pytest.approx(2.0)

    def test_speed_factor(self):
        sim = Simulator()
        n = Node(sim, "n0", NodeSpec(cores=1, speed=1.0))
        n.set_speed_factor(0.5)
        n.compute(1.0)
        sim.run()
        assert sim.now == pytest.approx(2.0)

    def test_invalid_speed_factor(self):
        sim = Simulator()
        n = Node(sim, "n0", NodeSpec())
        with pytest.raises(ValueError):
            n.set_speed_factor(0)

    def test_disk_io(self):
        sim = Simulator()
        n = Node(sim, "n0", NodeSpec(disk_bw=100.0))
        n.disk_read(50.0)
        n.disk_write(50.0)
        sim.run()
        assert sim.now == pytest.approx(1.0)   # shared bandwidth


class TestNodeLiveness:
    def test_fail_recover_listeners(self):
        sim = Simulator()
        n = Node(sim, "n0", NodeSpec())
        events = []
        n.listeners.append(lambda node, kind: events.append(kind))
        n.fail()
        n.fail()          # idempotent
        n.recover()
        n.recover()       # idempotent
        assert events == ["fail", "recover"]
        assert n.failures == 1


class TestMakeCluster:
    def test_shape(self):
        sim = Simulator()
        cl = make_cluster(sim, n_racks=3, nodes_per_rack=2)
        assert len(cl.nodes) == 6
        assert len(cl.racks) == 3
        assert cl.total_cores() == 6 * NodeSpec().cores

    def test_rack_membership(self):
        sim = Simulator()
        cl = make_cluster(sim, 2, 2)
        assert cl.same_rack("h0_0", "h0_1")
        assert not cl.same_rack("h0_0", "h1_0")

    def test_speed_factors(self):
        sim = Simulator()
        cl = make_cluster(sim, 1, 2, speed_factors=[1.0, 0.5])
        assert cl.nodes["h0_1"].effective_speed == pytest.approx(0.5)

    def test_duplicate_node_rejected(self):
        sim = Simulator()
        cl = make_cluster(sim, 1, 1)
        with pytest.raises(ConfigError):
            cl.add_node("h0_0", NodeSpec(), "rack0")

    def test_unknown_host_rejected(self):
        sim = Simulator()
        cl = make_cluster(sim, 1, 1)
        with pytest.raises(ConfigError):
            cl.add_node("ghost", NodeSpec(), "rack0")

    def test_live_nodes_tracks_failures(self):
        sim = Simulator()
        cl = make_cluster(sim, 1, 3)
        cl.nodes["h0_1"].fail()
        assert len(cl.live_nodes()) == 2

    def test_transfer_between_nodes(self):
        sim = Simulator()
        cl = make_cluster(sim, 2, 2)
        ev = cl.transfer("h0_0", "h1_1", 1000.0)
        stats = sim.run_until_done(ev)
        assert stats.nbytes == 1000
