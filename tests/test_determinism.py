"""Cross-cutting determinism and conservation properties.

The framework's core promise: identical seeds produce identical runs —
byte-for-byte results, identical simulated clocks, identical traffic
accounting — across every layer at once.
"""

import operator

import pytest

from repro.chaos import ClusterChaos, FaultPlan
from repro.cluster import make_cluster
from repro.common.units import MB
from repro.dataflow import CostModel, DataflowContext, EngineConfig, SimEngine
from repro.net import NetworkSim, fat_tree
from repro.simcore import Simulator
from repro.storage import DFSConfig, DistributedFS
from repro.workloads import job_mix, zipf_text


def run_full_stack(seed: int):
    """A kitchen-sink run touching network, DFS, engine, failures."""
    sim = Simulator()
    cl = make_cluster(sim, 2, 4)
    fs = DistributedFS(cl, DFSConfig(block_size=MB(2)), seed=seed)
    sim.run_until_done(fs.write("/f", size=MB(5), writer="h0_0"))
    # node failures dense enough to fire inside the sub-second job
    plan = FaultPlan.renewal(seed, 1.0, {"node_fail": 40.0},
                             targets=["h1_0", "h1_1"], mean_duration=0.05)
    chaos = ClusterChaos(cl, plan)
    chaos.start()
    ctx = DataflowContext()
    eng = SimEngine(cl, EngineConfig(speculation=True, check_interval=0.1),
                    cost_model=CostModel(cpu_per_record=1e-4))
    docs = zipf_text(50, 40, seed=seed)
    wc = (ctx.parallelize(docs, 8).flat_map(str.split)
          .map(lambda w: (w, 1)).reduce_by_key(operator.add, 8))
    res = sim.run_until_done(eng.collect(wc))
    return (sorted(res.value), res.metrics.duration, res.metrics.n_tasks,
            cl.net.total_bytes, chaos.trace.entries,
            res.metrics.n_failed_attempts, sim.now)


class TestDeterminism:
    def test_full_stack_replay_identical(self):
        run = run_full_stack(7)
        assert run == run_full_stack(7)
        # the replay must cover failures: churn fired and killed attempts
        _, _, _, _, entries, n_failed, _ = run
        assert entries
        assert n_failed > 0

    def test_different_seed_differs(self):
        a = run_full_stack(7)
        b = run_full_stack(8)
        assert a != b          # (word content and failures differ)

    def test_engine_timing_replay(self):
        def run():
            sim = Simulator()
            cl = make_cluster(sim, 2, 4,
                              speed_factors=[1, 1, 1, 1, 1, 1, 1, 0.2])
            ctx = DataflowContext()
            eng = SimEngine(cl, EngineConfig(speculation=True,
                                             check_interval=0.05),
                            cost_model=CostModel(cpu_per_record=2e-4))
            ds = ctx.range(20_000, 16).map(lambda x: x + 1)
            res = sim.run_until_done(eng.collect(ds))
            return (res.metrics.duration, res.metrics.n_speculative,
                    tuple(res.metrics.task_durations))
        assert run() == run()

    def test_scheduler_replay(self):
        from repro.scheduler import Resources, make_scheduling_policy, \
            run_schedule
        specs = job_mix(40, 100.0, seed=3)
        a = run_schedule(specs, Resources(16, 64),
                         make_scheduling_policy("fair"))
        b = run_schedule(specs, Resources(16, 64),
                         make_scheduling_policy("fair"))
        assert a.jcts == b.jcts and a.makespan == b.makespan


class TestConservation:
    def test_every_network_byte_accounted(self):
        """Per-link traffic equals sum over flows of bytes x hops."""
        topo = fat_tree(4)
        sim = Simulator()
        net = NetworkSim(sim, topo)
        hosts = topo.hosts
        sizes = [(i + 1) * 10_000 for i in range(12)]
        total_hop_bytes = 0
        per_link = {}
        for i, size in enumerate(sizes):
            src = hosts[i]
            dst = hosts[(i + 5) % len(hosts)]
            # transfer i is network flow i, so it takes this ECMP path
            path = topo.path(src, dst, flow_id=i)
            total_hop_bytes += size * len(path)
            for link in path:
                per_link[link.key] = per_link.get(link.key, 0) + size
            net.transfer(src, dst, size)
        sim.run()
        assert sum(net.link_bytes.values()) == total_hop_bytes
        assert net.link_bytes == per_link
        assert net.total_bytes == sum(sizes)

    def test_transfer_durations_positive_and_finite(self):
        topo = fat_tree(4)
        sim = Simulator()
        net = NetworkSim(sim, topo)
        evs = [net.transfer(topo.hosts[i], topo.hosts[-1 - i], 50_000)
               for i in range(6)]
        sim.run()
        for ev in evs:
            assert 0 < ev.value.duration < 10

    def test_dfs_stored_bytes_match_declared(self):
        sim = Simulator()
        cl = make_cluster(sim, 3, 3)
        fs = DistributedFS(cl, DFSConfig(block_size=MB(2)), seed=0)
        sim.run_until_done(fs.write("/r", size=MB(6), writer="h0_0"))
        assert fs.stored_bytes() == pytest.approx(3 * MB(6))
        sim.run_until_done(fs.write("/e", size=MB(6), mode="ec"))
        assert fs.stored_bytes() == pytest.approx(
            3 * MB(6) + 1.5 * MB(6), rel=0.01)

    def test_accumulator_conservation_under_chaos(self):
        """Record count survives failures + speculation exactly."""
        sim = Simulator()
        cl = make_cluster(sim, 2, 4,
                          speed_factors=[1, 1, 1, 0.3, 1, 1, 1, 1])
        ctx = DataflowContext()
        eng = SimEngine(cl, EngineConfig(speculation=True,
                                         check_interval=0.05),
                        cost_model=CostModel(cpu_per_record=2e-4))
        acc = ctx.accumulator(0)
        # seed 4 fails h1_3 twice while its tasks run
        plan = FaultPlan.renewal(4, 60.0, {"node_fail": 1 / 2.0},
                                 targets=["h1_3"], mean_duration=0.5)
        chaos = ClusterChaos(cl, plan)
        chaos.start()
        ds = ctx.range(30_000, 16).map(lambda x: (acc.add(1), x)[1])
        res = sim.run_until_done(eng.collect(ds))
        assert sorted(res.value) == list(range(30_000))
        assert acc.value == 30_000
        assert chaos.trace.count("node_fail") > 0
