"""Executor-slot accounting: every attempt gives back exactly one slot.

Regression tests for the audit's slot-leak fixes: speculative losers,
stage-finally orphans, and the node fail/recover cycle must all leave
``_free_slots[node] == cores`` once the cluster is idle — never fewer
(a leak starves later stages) and never more (double release).
"""

import operator

import pytest

from repro.cluster import make_cluster
from repro.dataflow import CostModel, DataflowContext, EngineConfig, SimEngine
from repro.resilience import ResiliencePolicies, RetryPolicy
from repro.simcore import Simulator

BUSY = CostModel(cpu_per_record=2e-4)


def assert_slots_restored(eng, cl):
    for name, node in cl.nodes.items():
        if node.alive:
            assert eng._free_slots[name] == node.spec.cores, \
                f"{name}: {eng._free_slots[name]} != {node.spec.cores}"


class TestSlotConservation:
    def test_plain_job_restores_all_slots(self):
        sim = Simulator()
        cl = make_cluster(sim, 2, 4)
        ctx = DataflowContext(default_parallelism=8)
        eng = SimEngine(cl, cost_model=BUSY)
        ds = ctx.range(5000, 16).map(lambda x: (x % 9, x)) \
                .reduce_by_key(operator.add)
        sim.run_until_done(eng.collect(ds))
        assert_slots_restored(eng, cl)

    def test_speculative_job_restores_all_slots(self):
        # a straggler node forces speculation; the losing attempts are
        # discarded by the stage loop but their slots stay held until the
        # simulated work finishes — then every one must come back
        sim = Simulator()
        cl = make_cluster(sim, 2, 4,
                          speed_factors=[1, 1, 1, 1, 1, 1, 1, 0.1])
        ctx = DataflowContext(default_parallelism=8)
        eng = SimEngine(cl, config=EngineConfig(speculation=True,
                                                check_interval=0.05),
                        cost_model=BUSY)
        ds = ctx.range(40_000, 16).map(lambda x: x * 2)
        res = sim.run_until_done(eng.collect(ds))
        assert len(res.value) == 40_000
        assert res.metrics.n_speculative > 0
        # let orphaned loser attempts drain
        sim.run(until=sim.now + 60.0)
        assert_slots_restored(eng, cl)

    def test_node_fail_recover_never_exceeds_cores(self):
        # fail a node mid-job, recover it later: the recover resets the
        # node's count wholesale and no late release may push it above
        # cores (the double-release bug)
        sim = Simulator()
        cl = make_cluster(sim, 2, 4)
        ctx = DataflowContext(default_parallelism=8)
        retry = ResiliencePolicies(retry=RetryPolicy(max_attempts=9))
        eng = SimEngine(cl, config=EngineConfig(resilience=retry),
                        cost_model=BUSY)
        ds = ctx.range(30_000, 16).map(lambda x: (x % 5, x)) \
                .reduce_by_key(operator.add)

        def chaos(s):
            yield s.timeout(0.02)
            cl.nodes["h0_0"].fail()
            yield s.timeout(0.1)
            cl.nodes["h0_0"].recover()
        sim.process(chaos(sim), name="chaos")
        res = sim.run_until_done(eng.collect(ds))
        assert sorted(res.value) == sorted(ds.collect())
        sim.run(until=sim.now + 60.0)
        assert_slots_restored(eng, cl)
        for name, node in cl.nodes.items():
            assert eng._free_slots[name] <= node.spec.cores

    def test_repeated_jobs_do_not_leak(self):
        sim = Simulator()
        cl = make_cluster(sim, 2, 2)
        ctx = DataflowContext(default_parallelism=4)
        eng = SimEngine(cl, cost_model=BUSY)
        for i in range(5):
            ds = ctx.range(2000 + i, 8).map(lambda x: (x % 3, x)) \
                    .reduce_by_key(operator.add)
            sim.run_until_done(eng.collect(ds))
            assert_slots_restored(eng, cl)
