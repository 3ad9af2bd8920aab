"""Trace-schema property tests over real workloads.

The contract: any traced run — including one with chaos faults injected
mid-flight — produces a trace where every span is closed, every parent id
is valid and contains its children, and sim-time is monotone; the Chrome
export is well-formed JSON; and tracing changes neither the results nor
the simulated clock.
"""

import json
from operator import add

import numpy as np
import pytest

from repro.chaos.adapters import ClusterChaos, EngineChaos, InjectionTrace
from repro.chaos.plan import FaultPlan
from repro.cluster import make_cluster
from repro.dataflow import (
    CostModel,
    DataflowContext,
    EngineConfig,
    ExecOptions,
    SimEngine,
)
from repro.obs import trace_to
from repro.resilience import ResiliencePolicies, RetryPolicy
from repro.simcore import Simulator
from repro.sql import DataFrame, col, count_, sum_

SEEDS = [0, 1, 7]


def chaos_plan(seed):
    node_names = [f"h{r}_{i}" for r in range(2) for i in range(4)]
    return FaultPlan.renewal(
        seed, horizon=0.3,
        rates={"node_fail": 3.0, "slow_node": 6.0,
               "task_crash": 15.0, "lost_shuffle": 10.0},
        targets=node_names, mean_duration=0.08)


def run_chaos_wordcount(seed, plan=None):
    """The oracle's wordcount workload, optionally under a fault plan."""
    sim = Simulator()
    cluster = make_cluster(sim, n_racks=2, nodes_per_rack=4)
    ctx = DataflowContext(default_parallelism=8)
    retry = ResiliencePolicies(retry=RetryPolicy(max_attempts=9))
    engine = SimEngine(cluster, config=EngineConfig(resilience=retry),
                       cost_model=CostModel(cpu_per_record=2e-4))
    rng = np.random.default_rng([seed, 101])
    vocab = [f"w{i:03d}" for i in range(40)]
    words = [vocab[j] for j in rng.integers(0, len(vocab), size=3000)]
    ds = ctx.parallelize(words, 8).map(lambda w: (w, 1)).reduce_by_key(add, 6)
    if plan is not None:
        ClusterChaos(cluster, plan, InjectionTrace()).start()
        EngineChaos(engine, plan, InjectionTrace()).start()
    res = sim.run_until_done(engine.collect(ds))
    return sorted(res.value)


@pytest.mark.parametrize("seed", SEEDS)
def test_traced_chaos_run_validates(seed):
    with trace_to() as tr:
        run_chaos_wordcount(seed, chaos_plan(seed))
    assert len(tr) > 0
    assert tr.validate() == []
    # every attempt reached exactly one terminal state
    for span in tr.find(cat="task"):
        assert span.attrs.get("outcome") in {
            "ok", "chaos_crash", "missing_shuffle", "node_lost", "orphaned"}


@pytest.mark.parametrize("seed", SEEDS[:1])
def test_traced_chaos_run_exports_valid_chrome_json(seed, tmp_path):
    with trace_to() as tr:
        run_chaos_wordcount(seed, chaos_plan(seed))
    path = tmp_path / "chaos.trace.json"
    n = tr.export_chrome(str(path))
    payload = json.loads(path.read_text())
    events = payload["traceEvents"]
    assert len(events) == n > 0
    phases = {e["ph"] for e in events}
    assert "X" in phases and "M" in phases
    for e in events:
        if e["ph"] == "X":
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)


def test_trace_signature_deterministic_across_reruns():
    """Same seed -> identical sim-time trace, the chaos-oracle contract."""
    def one(seed):
        with trace_to() as tr:
            result = run_chaos_wordcount(seed, chaos_plan(seed))
        return result, tr.signature()
    r1, s1 = one(3)
    r2, s2 = one(3)
    assert r1 == r2
    assert s1 == s2


def test_tracing_does_not_change_results():
    baseline = run_chaos_wordcount(5, chaos_plan(5))
    with trace_to():
        traced = run_chaos_wordcount(5, chaos_plan(5))
    assert traced == baseline


def test_traced_fused_sql_run_validates():
    import random
    rng = random.Random(5)
    rows = [{
        "region": rng.choice(["na", "eu", "ap", "sa"]),
        "price": round(rng.uniform(1.0, 90.0), 2),
        "qty": rng.randrange(0, 9),
    } for _ in range(400)]
    sim = Simulator()
    cl = make_cluster(sim, 2, 3)
    ctx = DataflowContext(default_parallelism=6)
    eng = SimEngine(cl)
    df = DataFrame.from_rows(ctx, rows)
    q = (df.with_column("rev", col("price") * col("qty"))
           .where(col("rev") > 20)
           .group_by("region").agg(t=sum_(col("rev")), n=count_()))
    with trace_to() as tr:
        res = sim.run_until_done(eng.collect(q.to_dataset()))
    ctx.options = ExecOptions(columnar=False)
    assert list(map(repr, res.value)) == list(map(repr, q.collect()))
    assert tr.validate() == []
    # fusion is on by default: the stage spans carry the segment layout
    stages = tr.find(cat="stage")
    assert stages
    assert any("fused_segments" in s.attrs for s in stages)


def test_kernel_event_instants_recorded_when_enabled():
    from repro.obs import Tracer
    sim = Simulator()
    tr = Tracer(kernel_events=True)
    sim.attach_observer(tr)

    def ticker():
        for _ in range(5):
            yield sim.timeout(0.1)

    sim.process(ticker(), name="ticker")
    sim.run()
    assert tr.instants          # kernel dispatch produced instant events
    assert all(lane == ("kernel", "dispatch")
               for _, _, _, lane, _ in tr.instants)
    assert tr.validate() == []
