"""Event-driven fluid network simulation behaviour."""

import pytest

import repro.net.netsim as netsim
from repro.common.errors import NetworkError
from repro.common.units import Gbit_per_s, MB
from repro.net import NetworkSim, dumbbell, fat_tree, star
from repro.simcore import Process, Simulator


def make(topo):
    sim = Simulator()
    return sim, NetworkSim(sim, topo)


class TestSingleFlows:
    def test_duration_matches_bandwidth(self):
        sim, net = make(dumbbell(1, 1, bottleneck_bw=Gbit_per_s(1)))
        ev = net.transfer("l0", "r0", MB(125))      # 1 Gbit-second
        stats = sim.run_until_done(ev)
        assert stats.duration == pytest.approx(1.0, rel=1e-3)

    def test_zero_bytes_latency_only(self):
        sim, net = make(star(2, latency=1e-3))
        ev = net.transfer("h0", "h1", 0)
        stats = sim.run_until_done(ev)
        assert stats.duration == pytest.approx(2e-3)

    def test_local_copy(self):
        sim, net = make(star(2))
        ev = net.transfer("h0", "h0", MB(125))
        stats = sim.run_until_done(ev)
        assert stats.duration == pytest.approx(MB(125) / net.local_copy_bw)

    def test_negative_size_rejected(self):
        sim, net = make(star(2))
        with pytest.raises(Exception):
            net.transfer("h0", "h1", -1)

    @pytest.mark.parametrize("limit", [0.0, -1.0])
    @pytest.mark.parametrize("dst", ["h1", "h0"])
    def test_nonpositive_limit_rejected(self, limit, dst):
        # a flow capped at rate 0 could never drain, and a local copy
        # would divide by its limit
        sim, net = make(star(2))
        with pytest.raises(NetworkError):
            net.transfer("h0", dst, MB(1), limit=limit)

    def test_flows_without_progress_raise(self, monkeypatch):
        monkeypatch.setattr(netsim, "allocate_rates",
                            lambda specs, caps: {s.flow_id: 0.0
                                                 for s in specs})
        sim, net = make(star(2))
        net.transfer("h0", "h1", MB(1))
        with pytest.raises(NetworkError, match="none can make progress"):
            sim.run()
        assert sim.now < 1.0

    def test_rate_limit(self):
        sim, net = make(dumbbell(1, 1, bottleneck_bw=Gbit_per_s(10)))
        ev = net.transfer("l0", "r0", MB(125), limit=Gbit_per_s(1))
        stats = sim.run_until_done(ev)
        assert stats.duration == pytest.approx(1.0, rel=1e-3)


class TestSharing:
    def test_two_flows_half_rate(self):
        sim, net = make(dumbbell(2, 2, bottleneck_bw=Gbit_per_s(1)))
        e1 = net.transfer("l0", "r0", MB(125))
        e2 = net.transfer("l1", "r1", MB(125))
        sim.run()
        assert e1.value.duration == pytest.approx(2.0, rel=1e-3)
        assert e2.value.duration == pytest.approx(2.0, rel=1e-3)

    def test_staggered_arrival_rates_adjust(self):
        sim, net = make(dumbbell(2, 2, bottleneck_bw=Gbit_per_s(1)))
        e1 = net.transfer("l0", "r0", MB(125))
        log = {}

        def later(sim):
            yield sim.timeout(0.5)
            e2 = net.transfer("l1", "r1", MB(125))
            stats = yield e2
            log["b_end"] = sim.now
        sim.process(later(sim))
        sim.run()
        # flow A: 0.5s alone + 1.0s shared = 1.5; flow B: ends at 2.0
        assert e1.value.end == pytest.approx(1.5, rel=1e-3)
        assert log["b_end"] == pytest.approx(2.0, rel=1e-3)

    def test_host_uplink_is_bottleneck_in_star(self):
        sim, net = make(star(3, host_bw=Gbit_per_s(1)))
        # two flows into the same destination share its uplink
        e1 = net.transfer("h0", "h2", MB(125))
        e2 = net.transfer("h1", "h2", MB(125))
        sim.run()
        assert e1.value.duration == pytest.approx(2.0, rel=1e-3)

    def test_disjoint_flows_full_rate(self):
        sim, net = make(fat_tree(4))
        e1 = net.transfer("h0_0_0", "h0_0_1", MB(125))   # same edge switch
        e2 = net.transfer("h1_0_0", "h1_0_1", MB(125))
        sim.run()
        assert e1.value.duration == pytest.approx(0.1, rel=1e-2)
        assert e2.value.duration == pytest.approx(0.1, rel=1e-2)


class TestAccounting:
    def test_total_bytes(self):
        sim, net = make(star(3))
        net.transfer("h0", "h1", 1000)
        net.transfer("h1", "h2", 500)
        sim.run()
        assert net.total_bytes == pytest.approx(1500)

    def test_link_bytes_sum_to_path_lengths(self):
        sim, net = make(star(2))
        net.transfer("h0", "h1", 1000)
        sim.run()
        assert sum(net.link_bytes.values()) == 2 * 1000   # two hops

    def test_read_at_the_completion_instant_stays_within_size(self):
        size = 29319.13
        sim, net = make(star(2))
        end = sim.run_until_done(net.transfer("h0", "h1", size)).end
        sim, net = make(star(2))
        net.transfer("h0", "h1", size)
        reads = []

        def sampler(sim):
            yield sim.timeout(end)
            # the waker has not run yet, and the flow's remaining bytes,
            # advanced to now, round below zero
            assert net.active_flows == 1
            reads.append(net.link_bytes)
        sim.process(sampler(sim))
        sim.run()
        assert sim.now == end
        assert reads == [net.link_bytes]
        assert set(net.link_bytes.values()) == {size}

    def test_n_transfers(self):
        sim, net = make(star(2))
        net.transfer("h0", "h1", 10)
        net.transfer("h0", "h0", 10)
        sim.run()
        assert net.n_transfers == 2

    def test_many_concurrent_flows_complete(self):
        sim, net = make(fat_tree(4))
        hosts = net.topo.hosts
        evs = []
        for i, src in enumerate(hosts):
            dst = hosts[(i + 7) % len(hosts)]
            evs.append(net.transfer(src, dst, MB(10)))
        sim.run()
        assert all(e.triggered and e.ok for e in evs)
        assert net.active_flows == 0


class WakerDispatches:
    """Kernel observer counting dispatches that resume the net waker."""

    def __init__(self):
        self.count = 0

    def on_event(self, sim, event, t):
        for cb in event.callbacks or ():
            owner = getattr(cb, "__self__", None)
            if isinstance(owner, Process) and owner.name == "net-waker":
                self.count += 1


class TestStartWavesAndWaker:
    def test_flows_starting_together_share_one_solve(self, monkeypatch):
        solves = []
        real = netsim.allocate_rates

        def counted(specs, caps):
            solves.append(len(specs))
            return real(specs, caps)
        monkeypatch.setattr(netsim, "allocate_rates", counted)
        sim, net = make(star(8, host_bw=Gbit_per_s(1)))
        # four disjoint two-hop flows of one size: one start wave, and
        # they all drain at one instant, which needs no further solve
        evs = [net.transfer(f"h{2 * i}", f"h{2 * i + 1}", MB(125))
               for i in range(4)]
        sim.run()
        assert solves == [4]
        assert len({e.value.end for e in evs}) == 1

    def test_one_waker_is_moved_not_respawned(self):
        sim, net = make(dumbbell(2, 2, bottleneck_bw=Gbit_per_s(1)))
        dispatches = WakerDispatches()
        sim.attach_observer(dispatches)
        e1 = net.transfer("l0", "r0", MB(125))

        def later(sim):
            yield sim.timeout(0.5)
            net.transfer("l1", "r1", MB(125))
        sim.process(later(sim))
        sim.run()
        # the waker's start plus one wake-up per completion; the wake-up
        # armed for flow A alone (t=1.0) moved when flow B started
        assert dispatches.count == 3
        assert e1.value.end == pytest.approx(1.5, rel=1e-3)

    def test_link_bytes_keyed_by_link_key(self):
        sim, net = make(star(3))
        net.transfer("h0", "h1", 1000)
        net.transfer("h2", "h1", 500)
        sim.run()
        assert net.link_bytes == {net.topo.link("h0", "core").key: 1000,
                                  net.topo.link("h1", "core").key: 1500,
                                  net.topo.link("h2", "core").key: 500}
