"""Chaos-harness overhead guard: an empty fault plan must cost ~nothing.

The adapters are designed so that attaching chaos with **no events** adds
only a ``None``-check per dataflow task (the ``fault_hook`` test), an
unwrapped rate function, and zero scheduled processes.  This benchmark
wall-clocks three workloads — simulated wordcount, the checkpointed
stream, and the micro-batch engine — bare vs with an empty
``FaultPlan.scripted([])`` attached (legs interleaved, best of five
each), and asserts the attached runs stay within a generous noise budget
of the bare runs.

Run standalone:  ``PYTHONPATH=src python benchmarks/bench_chaos_overhead.py``
"""

import sys
from operator import add

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import fresh_cluster

from repro.bench.perfsuite import interleaved_ab
from repro.chaos import (
    ClusterChaos,
    EngineChaos,
    FaultPlan,
    burst_rate,
    operator_crash_times,
)
from repro.streaming.checkpoint import CheckpointConfig, run_stateful_stream
from repro.streaming.microbatch import MicroBatchConfig, run_microbatch

EMPTY = FaultPlan.scripted([])

#: wall-clock ratio (chaos-attached / bare) each workload must stay under;
#: generous because the absolute times are milliseconds and noisy
MAX_RATIO = 1.25


def _wordcount(with_chaos: bool, n_words: int):
    def run():
        sim, cluster, ctx, engine = fresh_cluster(2, 4)
        words = [f"w{i % 50:02d}" for i in range(n_words)]
        ds = (ctx.parallelize(words, 8).map(lambda w: (w, 1))
              .reduce_by_key(add, 6))
        if with_chaos:
            ClusterChaos(cluster, EMPTY).start()
            EngineChaos(engine, EMPTY).start()
        sim.run_until_done(engine.collect(ds))
    return run


def _stream(with_chaos: bool, n_events: int):
    events = [(float(i) * 0.5, i % 20, 1) for i in range(n_events)]
    cfg = CheckpointConfig(interval=10.0)
    crashes = operator_crash_times(EMPTY) if with_chaos else ()

    def run():
        run_stateful_stream(events, add, lambda v: v, cfg,
                            crash_times=crashes)
    return run


def _microbatch(with_chaos: bool, duration: float):
    cfg = MicroBatchConfig(batch_interval=1.0, per_record_cost=1e-5,
                           parallelism=4)
    base = lambda t: 5000.0
    rate = burst_rate(base, EMPTY) if with_chaos else base

    def run():
        run_microbatch(rate, cfg, duration)
    return run


def run_chaos_overhead(scale: float = 1.0) -> dict:
    n_words = max(500, int(6000 * scale))
    n_events = max(500, int(20_000 * scale))
    duration = max(20.0, 200.0 * scale)
    results = {}
    for name, make in (("wordcount", lambda c: _wordcount(c, n_words)),
                       ("stream", lambda c: _stream(c, n_events)),
                       ("microbatch", lambda c: _microbatch(c, duration))):
        runs = {"bare": make(False), "attached": make(True)}
        times = interleaved_ab(tuple(runs),
                               lambda leg: (runs[leg], lambda _out: None),
                               reps=5)
        bare, attached = min(times["bare"]), min(times["attached"])
        ratio = attached / bare if bare > 0 else 1.0
        results[name] = {"bare_s": bare, "attached_s": attached,
                         "ratio": ratio}
        print(f"{name:<12} bare {bare * 1e3:8.2f} ms   "
              f"empty-plan {attached * 1e3:8.2f} ms   ratio {ratio:5.3f}")
    return results


def test_chaos_overhead(benchmark):
    results = benchmark.pedantic(run_chaos_overhead,
                                 kwargs={"scale": 0.25},
                                 rounds=1, iterations=1)
    for name, r in results.items():
        assert r["ratio"] < MAX_RATIO, (
            f"{name}: empty chaos plan costs {r['ratio']:.2f}x "
            f"(budget {MAX_RATIO}x)")


if __name__ == "__main__":
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    res = run_chaos_overhead(scale=scale)
    worst = max(r["ratio"] for r in res.values())
    print(f"worst ratio {worst:.3f} (budget {MAX_RATIO})")
    if worst >= MAX_RATIO:
        raise SystemExit(1)
