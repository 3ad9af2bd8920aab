"""Adaptive query plans under injected faults: recovery equivalence.

The AQE rewrites change the physical shape of a join — a broadcast join
removes the shuffle entirely; skew re-partitioning adds dedicated
reducers for hot keys.  Both must stay inside the engine's recovery
envelope: a run with node deaths, task crashes and lost shuffle blocks
must produce byte-identical results to the fault-free run, and re-running
the same fault plan must reproduce the same injection trace.
"""

import random

import pytest

from repro.chaos import ClusterChaos, EngineChaos, FaultPlan, InjectionTrace
from repro.cluster import make_cluster
from repro.dataflow import (
    CostModel,
    DataflowContext,
    EngineConfig,
    ExecOptions,
    SimEngine,
)
from repro.resilience import ResiliencePolicies, RetryPolicy
from repro.simcore import Simulator
from repro.sql import DataFrame, col, count_, sum_
from repro.sql.adaptive import AdaptiveConfig

SEEDS = range(3)

NODES = [f"h{r}_{i}" for r in range(2) for i in range(4)]

BROADCAST = AdaptiveConfig(broadcast_rows=100)
SKEW = AdaptiveConfig(broadcast_rows=1,   # keep the shuffle
                      skew_min_rows=100, skew_factor=2.0, measure=False)


def _fault_plan(seed):
    return FaultPlan.renewal(
        seed, horizon=0.3,
        rates={"node_fail": 3.0, "slow_node": 6.0,
               "task_crash": 15.0, "lost_shuffle": 10.0},
        targets=NODES, mean_duration=0.08)


def _broadcast_query(ctx, seed):
    rng = random.Random(seed)
    fact = [{"k": rng.randrange(12), "v": rng.randrange(100)}
            for _ in range(600)]
    dim = [{"k": i, "label": f"g{i}"} for i in range(12)]
    f = DataFrame.from_rows(ctx, fact, name="fact")
    d = DataFrame.from_rows(ctx, dim, name="dim")
    return (f.join(d, on="k")
            .group_by("label").agg(n=count_(), s=sum_(col("v"))))


def _skew_query(ctx, seed):
    rng = random.Random(seed)
    fact = [{"k": 0 if rng.random() < 0.7 else rng.randrange(1, 30),
             "v": rng.randrange(100)} for _ in range(900)]
    dim = [{"k": i, "w": i * 2} for i in range(30)]
    f = DataFrame.from_rows(ctx, fact, name="fact")
    d = DataFrame.from_rows(ctx, dim, name="dim")
    return f.join(d, on="k").group_by("k").agg(n=count_(), s=sum_(col("w")))


def _run(query_fn, config, seed, fault_plan, columnar):
    sim = Simulator()
    cluster = make_cluster(sim, n_racks=2, nodes_per_rack=4)
    ctx = DataflowContext(default_parallelism=8, options=ExecOptions(
        columnar=columnar, adaptive=config))
    retry = ResiliencePolicies(retry=RetryPolicy(max_attempts=9))
    engine = SimEngine(cluster, config=EngineConfig(resilience=retry),
                       cost_model=CostModel(cpu_per_record=2e-4))
    q = query_fn(ctx, seed)
    ds = q.to_dataset()
    report = q.last_adaptive_report
    trace = InjectionTrace()
    if fault_plan is not None:
        ClusterChaos(cluster, fault_plan, trace).start()
        EngineChaos(engine, fault_plan, trace).start()
    res = sim.run_until_done(engine.collect(ds))
    return sorted(map(repr, res.value)), trace, report


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("columnar", [True, False])
def test_broadcast_join_recovery_equivalence(seed, columnar):
    free, _t, report = _run(_broadcast_query, BROADCAST, seed, None,
                            columnar)
    assert "broadcast_joins" in report.kinds()      # the rewrite fired
    plan = _fault_plan(seed)
    faulted1, trace1, _ = _run(_broadcast_query, BROADCAST, seed, plan,
                               columnar)
    faulted2, trace2, _ = _run(_broadcast_query, BROADCAST, seed, plan,
                               columnar)
    assert faulted1 == free, "broadcast join diverged under faults"
    assert faulted1 == faulted2
    assert trace1.signature() == trace2.signature()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("columnar", [True, False])
def test_skew_repartition_recovery_equivalence(seed, columnar):
    free, _t, report = _run(_skew_query, SKEW, seed, None, columnar)
    assert "skew_repartitions" in report.kinds()    # hot key was isolated
    plan = _fault_plan(seed)
    faulted1, trace1, _ = _run(_skew_query, SKEW, seed, plan, columnar)
    faulted2, trace2, _ = _run(_skew_query, SKEW, seed, plan, columnar)
    assert faulted1 == free, "skew re-partition diverged under faults"
    assert faulted1 == faulted2
    assert trace1.signature() == trace2.signature()


def test_faults_actually_fire():
    # non-vacuity: across the seeds at least one run injects something
    total = 0
    for seed in SEEDS:
        _out, trace, _r = _run(_broadcast_query, BROADCAST, seed,
                               _fault_plan(seed), True)
        total += len(trace)
    assert total > 0
