"""Per-layer injection adapters: scripted faults land where they should."""

from operator import add

import numpy as np
import pytest

from repro.chaos import (
    ClusterChaos,
    DFSChaos,
    EngineChaos,
    FaultEvent,
    FaultPlan,
    InjectionTrace,
    burst_rate,
    burst_series,
    operator_crash_times,
)
from repro.chaos.adapters import sleep_until
from repro.cluster import make_cluster
from repro.dataflow import CostModel, DataflowContext, EngineConfig, SimEngine
from repro.resilience import ResiliencePolicies, RetryPolicy
from repro.simcore import Simulator
from repro.storage.dfs import DFSConfig, DistributedFS


class TestSleepUntil:
    def test_absolute_time(self):
        sim = Simulator()
        hits = []

        def _p():
            yield sleep_until(sim, 5.0)
            hits.append(sim.now)
        sim.process(_p())
        sim.run()
        assert hits == [5.0]

    def test_past_time_collapses_to_now(self):
        sim = Simulator()
        hits = []

        def _p():
            yield sim.timeout(3.0)
            yield sleep_until(sim, 1.0)   # already past: zero delay
            hits.append(sim.now)
        sim.process(_p())
        sim.run()
        assert hits == [3.0]

    def test_same_timestamp_fires_in_spawn_order(self):
        # the property every injection adapter relies on: events scheduled
        # for the same instant (including already-past times collapsing to
        # "now") fire in the order their processes were spawned, so a
        # plan's same-time faults land in plan order
        order = []

        def runs():
            sim = Simulator()

            def _p(tag, t):
                yield sleep_until(sim, t)
                order.append((tag, sim.now))
            for tag in ("a", "b", "c", "d"):
                sim.process(_p(tag, 2.0), name=f"inj:{tag}")
            sim.run()
        runs()
        assert [tag for tag, _ in order] == ["a", "b", "c", "d"]
        assert all(t == 2.0 for _, t in order)
        first = list(order)
        order.clear()
        runs()
        assert order == first


class TestInjectionTrace:
    def test_record_and_signature(self):
        tr = InjectionTrace()
        tr.record(1.5, "node_fail", "n1")
        tr.record(2.5, "node_recover", "n1")
        assert len(tr) == 2
        assert tr.signature() == ((1.5, "node_fail", "n1"),
                                  (2.5, "node_recover", "n1"))

    def test_count_by_kind(self):
        tr = InjectionTrace()
        tr.record(1.0, "task_crash", "a")
        tr.record(2.0, "task_crash", "b")
        tr.record(3.0, "node_fail", "n")
        assert tr.count("task_crash") == 2
        assert tr.count("lost_block") == 0


class TestClusterChaos:
    def _cluster(self):
        sim = Simulator()
        return sim, make_cluster(sim, n_racks=1, nodes_per_rack=3)

    def test_scripted_fail_and_recover(self):
        sim, cl = self._cluster()
        plan = FaultPlan.scripted(
            [FaultEvent(5.0, "node_fail", "h0_1", duration=10.0)])
        chaos = ClusterChaos(cl, plan)
        assert chaos.start() == 1
        sim.run(until=6.0)
        assert not cl.nodes["h0_1"].alive
        sim.run(until=20.0)
        assert cl.nodes["h0_1"].alive
        assert chaos.trace.signature() == (
            (5.0, "node_fail", "h0_1"), (15.0, "node_recover", "h0_1"))

    def test_last_live_node_is_spared(self):
        sim, cl = self._cluster()
        plan = FaultPlan.scripted([
            FaultEvent(1.0, "node_fail", "h0_0"),
            FaultEvent(2.0, "node_fail", "h0_1"),
            FaultEvent(3.0, "node_fail", "h0_2"),
        ])
        chaos = ClusterChaos(cl, plan)
        chaos.start()
        sim.run(until=10.0)
        assert len(cl.live_nodes()) == 1
        assert chaos.trace.count("node_fail") == 2
        assert chaos.trace.count("node_fail_skipped") == 1

    def test_slow_node_restores_speed(self):
        sim, cl = self._cluster()
        plan = FaultPlan.scripted(
            [FaultEvent(2.0, "slow_node", "h0_0", duration=4.0,
                        magnitude=0.25)])
        ClusterChaos(cl, plan).start()
        node = cl.nodes["h0_0"]
        sim.run(until=3.0)
        assert node.speed_factor == pytest.approx(0.25)
        sim.run(until=10.0)
        assert node.speed_factor == pytest.approx(1.0)

    def test_unnamed_target_resolved_deterministically(self):
        picks = []
        for _ in range(2):
            sim, cl = self._cluster()
            plan = FaultPlan.scripted([FaultEvent(1.0, "node_fail")], seed=9)
            chaos = ClusterChaos(cl, plan)
            chaos.start()
            sim.run(until=2.0)
            picks.append(chaos.trace.signature())
        assert picks[0] == picks[1]
        assert picks[0][0][1] == "node_fail"


def _wordcount_env():
    sim = Simulator()
    cl = make_cluster(sim, n_racks=2, nodes_per_rack=4)
    ctx = DataflowContext(default_parallelism=8)
    retry = ResiliencePolicies(retry=RetryPolicy(max_attempts=9))
    eng = SimEngine(cl, config=EngineConfig(resilience=retry),
                    cost_model=CostModel(cpu_per_record=2e-4))
    words = (["alpha", "beta", "gamma", "delta"] * 300)
    ds = ctx.parallelize(words, 8).map(lambda w: (w, 1)).reduce_by_key(add, 4)
    expected = sorted(ds.collect())
    return sim, eng, ds, expected


class TestEngineChaos:
    def test_task_crash_retried_transparently(self):
        sim, eng, ds, expected = _wordcount_env()
        plan = FaultPlan.scripted(
            [FaultEvent(0.0, "task_crash", magnitude=3.0)])
        chaos = EngineChaos(eng, plan)
        chaos.start()
        res = sim.run_until_done(eng.collect(ds))
        assert sorted(res.value) == expected
        assert chaos.trace.count("task_crash") == 3

    def test_hook_not_armed_without_task_crashes(self):
        sim, eng, ds, _ = _wordcount_env()
        plan = FaultPlan.scripted([FaultEvent(0.05, "lost_shuffle")])
        EngineChaos(eng, plan).start()
        assert eng.fault_hook is None

    def test_lost_shuffle_triggers_lineage_recovery(self):
        sim, eng, ds, expected = _wordcount_env()
        # drop two map outputs right after the map stage registers them
        # (all 8 maps finish at t=0.065 in this homogeneous setup); reduces
        # that have not fetched yet hit MissingShuffleError and lineage
        # recovery re-runs the dropped maps
        plan = FaultPlan.scripted(
            [FaultEvent(0.066, "lost_shuffle", magnitude=2.0)])
        chaos = EngineChaos(eng, plan)
        chaos.start()
        res = sim.run_until_done(eng.collect(ds))
        assert sorted(res.value) == expected
        assert chaos.trace.count("lost_shuffle") == 2

    def test_drop_map_outputs_without_rng_is_lowest_first(self):
        sim, eng, ds, _ = _wordcount_env()
        res = sim.run_until_done(eng.collect(ds))
        assert res.value
        # after the job the registry still holds the map outputs
        dropped = eng.drop_map_outputs(2)
        assert dropped == [(0, 0), (0, 1)]


class TestDFSChaos:
    def _fs(self):
        sim = Simulator()
        cl = make_cluster(sim, n_racks=3, nodes_per_rack=3)
        dfs = DistributedFS(cl, DFSConfig(block_size=64 * 1024, ec_k=4,
                                          ec_m=2, detection_delay=0.5),
                            seed=3)
        return sim, dfs

    @pytest.mark.parametrize("mode", ["replicate", "ec"])
    def test_lost_piece_is_repaired_and_data_survives(self, mode):
        sim, dfs = self._fs()
        rng = np.random.default_rng(17)
        payload = rng.bytes(120_000)
        sim.run_until_done(dfs.write("/f.bin", data=payload,
                                     writer="h0_0", mode=mode))
        plan = FaultPlan.scripted([FaultEvent(1.0, "lost_block")], seed=4)
        chaos = DFSChaos(dfs, plan)
        assert chaos.start() == 1
        sim.run(until=30.0)
        assert chaos.trace.count("lost_block") == 1
        assert chaos.trace.count("block_repaired") == 1
        assert dfs.repairs_started >= 1
        got, _ = sim.run_until_done(dfs.read("/f.bin", reader="h2_2"))
        assert got == payload

    def test_skip_when_nothing_droppable(self):
        sim, dfs = self._fs()
        plan = FaultPlan.scripted([FaultEvent(1.0, "lost_block")], seed=4)
        chaos = DFSChaos(dfs, plan)
        chaos.start()
        sim.run(until=5.0)
        assert chaos.trace.count("lost_block_skipped") == 1


class TestStreamAndLoadHelpers:
    def test_operator_crash_times(self):
        plan = FaultPlan.scripted([
            FaultEvent(3.0, "operator_crash"),
            FaultEvent(1.0, "operator_crash"),
            FaultEvent(2.0, "node_fail", "n1"),
        ])
        assert operator_crash_times(plan) == [1.0, 3.0]

    def test_burst_rate_windows(self):
        plan = FaultPlan.scripted(
            [FaultEvent(10.0, "load_burst", duration=5.0, magnitude=3.0)])
        rate = burst_rate(lambda t: 100.0, plan)
        assert rate(9.9) == 100.0
        assert rate(10.0) == 300.0
        assert rate(14.9) == 300.0
        assert rate(15.0) == 100.0

    def test_burst_rate_no_events_returns_base_fn(self):
        base = lambda t: 42.0
        assert burst_rate(base, FaultPlan.scripted([])) is base

    def test_burst_series(self):
        plan = FaultPlan.scripted(
            [FaultEvent(2.0, "load_burst", duration=2.0, magnitude=2.0)])
        out = burst_series([10.0] * 6, plan, dt=1.0)
        assert out.tolist() == [10.0, 10.0, 20.0, 20.0, 10.0, 10.0]
