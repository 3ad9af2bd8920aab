"""Observability demo: trace a faulted wordcount, export for Perfetto.

Runs the chaos harness's wordcount workload under a seeded fault plan
with the tracer and metrics registry installed, then:

* validates the trace schema (every span closed, parents valid,
  sim-time monotone);
* exports ``obs_demo.trace.json`` — open it at https://ui.perfetto.dev
  (or ``chrome://tracing``) to see the job/stage/task spans per node,
  with node failures, lineage recoveries and speculation as instants;
* exports ``obs_demo.jsonl`` for programmatic analysis;
* dumps the engine's typed metrics.

Usage:  PYTHONPATH=src python examples/obs_demo.py [seed]
"""

import os
import sys
from operator import add

import numpy as np

from repro.chaos.adapters import ClusterChaos, EngineChaos, InjectionTrace
from repro.chaos.plan import FaultPlan
from repro.cluster import make_cluster
from repro.dataflow import CostModel, DataflowContext, EngineConfig, SimEngine
from repro.obs import MetricsRegistry, metrics, trace_to
from repro.resilience import ResiliencePolicies, RetryPolicy
from repro.simcore import Simulator

OUT_DIR = os.path.dirname(os.path.abspath(__file__))


def main(seed: int = 0) -> None:
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

    node_names = [f"h{r}_{i}" for r in range(2) for i in range(4)]
    plan = FaultPlan.renewal(
        seed, horizon=0.3,
        rates={"node_fail": 3.0, "slow_node": 6.0,
               "task_crash": 15.0, "lost_shuffle": 10.0},
        targets=node_names, mean_duration=0.08)

    reg = MetricsRegistry()
    metrics.set_registry(reg)
    try:
        with trace_to() as tr:
            ClusterChaos(cluster, plan, InjectionTrace()).start()
            EngineChaos(engine, plan, InjectionTrace()).start()
            res = sim.run_until_done(engine.collect(ds))
    finally:
        metrics.set_registry(None)

    problems = tr.validate()
    assert not problems, problems
    assert sum(n for _w, n in res.value) == len(words)

    chrome = os.path.join(OUT_DIR, "obs_demo.trace.json")
    jsonl = os.path.join(OUT_DIR, "obs_demo.jsonl")
    n_chrome = tr.export_chrome(chrome)
    n_jsonl = tr.export_jsonl(jsonl)

    tasks = tr.find(cat="task")
    outcomes: dict = {}
    for s in tasks:
        o = s.attrs.get("outcome", "?")
        outcomes[o] = outcomes.get(o, 0) + 1
    print(f"wordcount under chaos (seed {seed}): "
          f"{len(res.value)} distinct words, sim time {sim.now:.3f}s")
    print(f"trace: {len(tr.spans)} spans, {len(tr.instants)} instants — "
          f"schema valid")
    print(f"task outcomes: {outcomes}")
    print(f"wrote {chrome} ({n_chrome} events) — open in "
          f"https://ui.perfetto.dev")
    print(f"wrote {jsonl} ({n_jsonl} lines)")
    print("\nengine metrics:")
    print(reg.dump())


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
