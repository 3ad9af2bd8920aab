"""Wall-clock performance suite for the dataflow hot paths.

Unlike the experiment harnesses (which report *simulated* time), this
module measures **real wall-clock** behaviour of the engine over a fixed
workload basket — wordcount, terasort, pagerank, and a skewed map-side
combine.  ``benchmarks/bench_p0_wallclock.py`` drives it and writes
``BENCH_wallclock.json`` so every PR leaves a comparable perf trajectory
(SProBench-style: tracked, reproducible numbers make perf work credible).

Two single-leg measurements per simulated-cluster workload:

* ``shuffle_write`` — records/sec through :func:`~repro.dataflow.
  shuffleio.write_buckets` on that workload's listed map-task outputs,
  map-side combine included (one call per map task, one
  :class:`~repro.dataflow.costmodel.SizeEstimator` per executor),
  best of several reps.  Profiling shows end-to-end simulated jobs are
  dominated by the network-flow solver (max-min fair rate allocation),
  which this microbenchmark deliberately excludes.
* ``end_to_end`` — a full :class:`~repro.dataflow.engine.SimEngine` job:
  real wall seconds, simulated seconds, and the number of DES-kernel
  events processed.

Neither has an in-tree baseline leg: the cross-commit end-to-end record
is the ``perfbench/`` benchmark.  Every A/B that remains — the execution
optimizers against their reference paths and the <5% overhead guards —
runs through one loop, :func:`interleaved_ab` (legs rotated each rep, a
GC collection before each timed run, every leg's result digest equal to
the first), so each ratio is a pure execution-efficiency measurement.
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..cluster import make_cluster
from ..common.units import Gbit_per_s
from ..dataflow import (
    Aggregator,
    CostModel,
    DataflowContext,
    EngineConfig,
    ExecOptions,
    HashPartitioner,
    ProcessPoolBackend,
    RangePartitioner,
    SimEngine,
    SizeEstimator,
)
from ..dataflow import shuffleio
from ..dataflow.mp import default_start_method
from ..dataflow.plan import ShuffleDependency
from ..graph.generators import erdos_renyi
from ..graph.dataflow_algos import pagerank_dataflow_plan
from ..resilience import AdmissionConfig
from ..simcore import Simulator
from ..streaming.backpressure import PipelineConfig, run_event_pipeline
from ..streaming.events import (
    EventBatch,
    VectorizedWindowAggregator,
    WindowAgg,
    WindowSpec,
)
from ..workloads import event_stream, teragen, zipf_text
from .harness import bench_metadata

__all__ = ["BASKET", "HEADLINE", "POOL_HEADLINE", "POOL_SWEEP",
           "STREAM_SCENARIOS", "SERVE_MIXES", "SCHEMA_VERSION", "run_suite",
           "write_report", "measure_shuffle_write", "measure_end_to_end",
           "measure_sql_analytics", "measure_sql_join", "measure_narrow_chain",
           "measure_pool_backend", "measure_windowed_aggregation",
           "measure_sustained_throughput", "measure_multi_tenant_serving",
           "measure_obs_overhead", "measure_resilience_overhead",
           "measure_integrity_overhead", "profile_end_to_end"]

#: v8 adds the streaming measurements: ``windowed_aggregation`` (the
#: vectorized event-time aggregator A/B'd byte-for-byte against the
#: scalar oracle) in ``workloads``, the SProBench-style
#: ``sustained_throughput`` section (binary-searched max sustainable
#: ingest rate per arrival scenario under a p99 latency bound, plus
#: overload legs with backpressure off/on/on+admission), and the
#: ``pool_backend.insufficient_cores`` flag that nulls the pool headline
#: on runners with fewer than 4 cores instead of reporting a misleading
#: sub-1x "speedup".
#:
#: v9 adds ``multi_tenant_serving``: the end-to-end gateway scenario of
#: ROADMAP item 1 — tenant mixes scaled to millions of modeled users
#: submitting SQL/dataflow/streaming/workflow jobs through admission,
#: fair-share scheduling, breaker-gated autoscaling, and retry/hedging —
#: reporting per-tenant p99 latency, goodput-per-dollar, and Jain
#: fairness per mix, plus a chaos-sweep leg where every seed must hold
#: per-tenant conservation exactly and degrade p99 gracefully.
#:
#: v10 adds ``integrity_overhead``: the checksummed data plane A/B'd
#: against itself disabled — an interleaved on/off end-to-end leg
#: (engine map-output seals + verification on fetch) and a spill-file
#: leg (CRC32-stamped bucket files written and read back) — with the
#: end-to-end median ratio guarded at < 5%.
#:
#: v11 drops the in-tree baseline legs (the scalar shuffle writer and
#: the eager poll timer are gone): ``shuffle_write`` and ``end_to_end``
#: are single-leg, the summary loses ``records_per_sec_baseline``,
#: ``speedup`` and the wordcount baseline event fields
#: (``wordcount_sim_events_current`` becomes ``wordcount_sim_events``),
#: and ``meta`` loses ``shuffle_vectorized``.
#:
#: v12 replaces ``meta``'s two engine flags (fusion, columnar) with
#: ``exec_options``, the default ``ExecOptions`` as a dict.
SCHEMA_VERSION = 12

#: The fixed workload basket, in reporting order.  The first four are
#: the simulated-cluster jobs; ``sql_analytics``, ``sql_join`` and
#: ``narrow_chain`` A/B the execution optimizers (columnar SQL,
#: vectorized joins, narrow-chain fusion) on the local executor.
BASKET = ("wordcount", "terasort", "pagerank", "skewed_combine",
          "sql_analytics", "sql_join", "narrow_chain")

#: The simulated-cluster subset (shuffle-write + end-to-end measures).
SIM_BASKET = ("wordcount", "terasort", "pagerank", "skewed_combine")

#: Workloads whose combined shuffle-write throughput is the summary rate.
HEADLINE = ("wordcount", "terasort")

#: Cost model for the end-to-end jobs.  ``cpu_per_record`` is set so map
#: tasks span many ``check_interval`` periods of simulated time — the
#: big-data regime (tasks run seconds to minutes, the scheduler ticks
#: every ~100 ms, as in Spark).
_SIM_COST = CostModel(cpu_per_record=1.5e-2, task_overhead=5e-3)

#: Scheduler tick for the end-to-end jobs (Spark's speculation interval
#: default, 100 ms).
_CHECK_INTERVAL = 0.1

#: Cost model for the shuffle-write runs (defaults, as the executors use).
_WRITE_COST = CostModel()


# ---------------------------------------------------------------------------
# the one A/B loop, its ratio, and its noise retry
# ---------------------------------------------------------------------------

def interleaved_ab(legs: Sequence[str],
                   run: Callable[[str], Tuple[Callable[[], Any],
                                              Callable[[Any], Any]]],
                   reps: int) -> Dict[str, List[float]]:
    """Time every leg ``reps`` times, interleaved; return per-leg seconds.

    ``run(leg)`` sets one leg up and returns ``(job, digest)``.  Only
    ``job()`` is timed, right after a GC collection, so setup garbage
    never lands in the measured region; ``digest`` then maps its result
    to something comparable.  The leg order rotates by one each rep, so
    slow load drift hits every leg in every position equally.  Every
    digest must equal the first one: an A/B is meaningless unless the
    legs compute the same result, so a mismatch raises
    ``AssertionError`` naming the leg.
    """
    times: Dict[str, List[float]] = {leg: [] for leg in legs}
    first: Optional[Tuple[str, Any]] = None
    for rep in range(reps):
        for i in range(len(legs)):
            leg = legs[(rep + i) % len(legs)]
            job, digest = run(leg)
            gc.collect()
            t0 = time.perf_counter()
            out = job()
            times[leg].append(time.perf_counter() - t0)
            d = digest(out)
            if first is None:
                first = (leg, d)
            elif d != first[1]:
                raise AssertionError(
                    f"leg {leg!r} computed a different result than "
                    f"leg {first[0]!r}")
    return times


def _same(out: Any) -> Any:
    """The identity digest: compare a job's result as is."""
    return out


def _reprs(rows: Sequence[Any]) -> List[str]:
    """Row-for-row digest of a query result."""
    return list(map(repr, rows))


def median_ratio(times: Dict[str, List[float]], leg: str,
                 base: str) -> float:
    """Median over reps of ``times[leg][i] / times[base][i]``.

    The legs of one rep run back-to-back, so ambient-load drift is
    shared within a rep and cancels in its ratio; the median then
    rejects reps where a load spike hit one leg only.  A ratio of minima
    is far noisier on a loaded machine: the minima of different legs
    come from *different* moments, so they don't share a load floor.
    """
    return statistics.median(t / b for t, b in zip(times[leg], times[base]))


def best_trial(trial: Callable[[], Dict[str, Any]], key: str,
               attempts: int, guard: float) -> Dict[str, Any]:
    """Repeat ``trial()`` until its ``key`` reads under ``guard``, at most
    ``attempts`` times; return the trial with the lowest ``key``.

    Ambient load on shared runners is bursty at every timescale, so a
    single trial can read several percent high by pure noise.  A *real*
    regression above the guard fails every attempt, while a noise spike
    rarely survives three.
    """
    best: Optional[Dict[str, Any]] = None
    for _ in range(max(1, attempts)):
        result = trial()
        if best is None or result[key] < best[key]:
            best = result
        if best[key] < guard:
            break
    assert best is not None
    return best


def _speedup_report(records: int, times: Dict[str, List[float]],
                    base: str = "baseline", cur: str = "current",
                    secs_key: str = "wall_seconds") -> Dict[str, Any]:
    """Best-of-reps seconds and rate per leg, plus ``base``/``cur``."""
    best = {leg: min(ts) for leg, ts in times.items()}
    return {
        "records": records,
        **{leg: {secs_key: secs, "records_per_sec": records / secs}
           for leg, secs in best.items()},
        "speedup": best[base] / best[cur],
    }


# ---------------------------------------------------------------------------
# shuffle-write throughput: the vectorized hot path
# ---------------------------------------------------------------------------

def _chunk(records: List, n_tasks: int) -> List[List]:
    size = (len(records) + n_tasks - 1) // n_tasks
    return [records[i:i + size] for i in range(0, len(records), size)]


def measure_shuffle_write(dep: ShuffleDependency, task_outputs: List[List],
                          reps: int = 5) -> Dict[str, Any]:
    """Measure the map-side combine (when ``dep`` asks for one) plus
    ``write_buckets`` over one stage's map-task outputs.

    Each rep is one executor's worth of map tasks (a fresh
    :class:`SizeEstimator`, as each executor holds one); every rep must
    produce identical buckets.  Reports best-of-``reps`` throughput.
    """
    records = sum(len(t) for t in task_outputs)
    combine = dep.map_side_combine and dep.aggregator is not None

    def run(_leg: str):
        estimator = SizeEstimator(_WRITE_COST)
        return (lambda: [shuffleio.write_buckets(
            dep, shuffleio._combine(dep, recs) if combine else recs,
            _WRITE_COST, estimator)[0] for recs in task_outputs]), _same

    secs = min(interleaved_ab(("write",), run, reps)["write"])
    return {
        "records": records,
        "map_tasks": len(task_outputs),
        "seconds": secs,
        "records_per_sec": records / secs,
    }


_SUM = Aggregator(create=lambda v: v,
                  merge_value=lambda a, b: a + b,
                  merge_combiners=lambda a, b: a + b)


def _shuffle_dep(partitioner, aggregator=None,
                 combine: bool = False) -> ShuffleDependency:
    ctx = DataflowContext(default_parallelism=4)
    parent = ctx.parallelize([("_", 0)], 1)
    return ShuffleDependency(parent, partitioner, aggregator=aggregator,
                             map_side_combine=combine)


def _write_wordcount(scale: float) -> Tuple[ShuffleDependency, List[List]]:
    docs = zipf_text(n_docs=int(6000 * scale), words_per_doc=120,
                     vocab_size=2000, skew=1.0, seed=11)
    pairs = [(w, 1) for d in docs for w in d.split()]
    return (_shuffle_dep(HashPartitioner(16), _SUM, combine=True),
            _chunk(pairs, 32))


def _write_terasort(scale: float) -> Tuple[ShuffleDependency, List[List]]:
    recs = teragen(int(48_000 * scale), key_bytes=10, payload_bytes=16,
                   seed=12)
    keys = [r[0] for r in recs]
    sample = random.Random(0).sample(keys, min(1000, len(keys)))
    return (_shuffle_dep(RangePartitioner.from_sample(sample, 16)),
            _chunk(recs, 16))


def _write_pagerank(scale: float) -> Tuple[ShuffleDependency, List[List]]:
    g = erdos_renyi(int(3000 * scale), m=int(24_000 * scale), seed=13)
    out_deg = g.out_degrees()
    contribs = [(v, 1.0 / out_deg[u]) for u, v in g.edge_list()]
    return _shuffle_dep(HashPartitioner(8)), _chunk(contribs, 8)


def _write_skewed_combine(scale: float) -> Tuple[ShuffleDependency,
                                                 List[List]]:
    docs = zipf_text(n_docs=int(800 * scale), words_per_doc=150,
                     vocab_size=300, skew=1.3, seed=14)
    pairs = [(w, 1) for d in docs for w in d.split()]
    return (_shuffle_dep(HashPartitioner(8), _SUM, combine=True),
            _chunk(pairs, 8))


_WRITE_BUILDERS: Dict[str, Callable] = {
    "wordcount": _write_wordcount,
    "terasort": _write_terasort,
    "pagerank": _write_pagerank,
    "skewed_combine": _write_skewed_combine,
}


# ---------------------------------------------------------------------------
# end-to-end jobs: wall clock + DES event churn
# ---------------------------------------------------------------------------

def _fresh(options: ExecOptions = ExecOptions(),
           **config) -> Tuple[Simulator, DataflowContext, SimEngine]:
    """A fresh 2x4 cluster, context (under ``options``) and engine;
    ``config`` overrides :class:`EngineConfig` fields."""
    sim = Simulator()
    cluster = make_cluster(sim, 2, 4, host_bw=Gbit_per_s(10))
    ctx = DataflowContext(default_parallelism=16, cost_model=_SIM_COST,
                          options=options)
    cfg = EngineConfig(check_interval=_CHECK_INTERVAL, **config)
    engine = SimEngine(cluster, config=cfg, cost_model=_SIM_COST)
    return sim, ctx, engine


def _checksum(values: Sequence[Any]) -> int:
    from ..dataflow.partitioner import stable_hash
    total = 0
    for v in values:
        total = (total + stable_hash(repr(v))) & 0xFFFFFFFFFFFFFFFF
    return total


def _job_wordcount(ctx: DataflowContext, scale: float):
    docs = zipf_text(n_docs=int(300 * scale), words_per_doc=120,
                     vocab_size=2000, skew=1.0, seed=11)
    n_records = sum(len(d.split()) for d in docs)
    ds = (ctx.parallelize(docs, 16)
          .flat_map(str.split)
          .map(lambda w: (w, 1))
          .reduce_by_key(lambda a, b: a + b, 16))
    return ds, n_records, _checksum


def _job_terasort(ctx: DataflowContext, scale: float):
    records = teragen(int(30_000 * scale), key_bytes=10, payload_bytes=16,
                      seed=12)
    ds = ctx.parallelize(records, 16).sort_by(lambda kv: kv[0],
                                              n_partitions=16)
    return ds, len(records), _checksum


def _job_pagerank(ctx: DataflowContext, scale: float):
    n_vertices = int(600 * scale)
    g = erdos_renyi(n_vertices, m=8 * n_vertices, seed=13)
    ds = pagerank_dataflow_plan(ctx, g, iterations=3, n_partitions=8)
    return ds, g.n + g.n_edges, lambda v: _checksum(sorted(v))


def _job_skewed_combine(ctx: DataflowContext, scale: float):
    docs = zipf_text(n_docs=int(150 * scale), words_per_doc=150,
                     vocab_size=300, skew=1.3, seed=14)
    words = [w for d in docs for w in d.split()]
    ds = (ctx.parallelize(words, 16)
          .map(lambda w: (w, 1))
          .reduce_by_key(lambda a, b: a + b, 8))
    return ds, len(words), _checksum


_JOB_BUILDERS: Dict[str, Callable] = {
    "wordcount": _job_wordcount,
    "terasort": _job_terasort,
    "pagerank": _job_pagerank,
    "skewed_combine": _job_skewed_combine,
}


def measure_end_to_end(name: str, scale: float = 1.0) -> Dict[str, Any]:
    """Run one basket job on a fresh simulated cluster.

    Reports wall seconds, simulated seconds, DES-kernel events processed
    and task count.  Speculation is off, so idle stage loops wait on the
    task inbox alone and never arm a poll timer.
    """
    sim, ctx, engine = _fresh()
    ds, n_records, _digest = _JOB_BUILDERS[name](ctx, scale)
    t0 = time.perf_counter()
    res = sim.run_until_done(engine.collect(ds))
    wall = time.perf_counter() - t0
    return {
        "records": n_records,
        "wall_seconds": wall,
        "sim_events": sim.events_processed,
        "sim_seconds": res.metrics.duration,
        "n_tasks": res.metrics.n_tasks,
    }


# ---------------------------------------------------------------------------
# SQL analytics: columnar engine vs the row interpreter
# ---------------------------------------------------------------------------

def _sql_rows(scale: float) -> List[Dict[str, Any]]:
    rng = random.Random(21)
    regions = ["na", "eu", "ap", "sa", "af", "oc"]
    return [{
        "region": rng.choice(regions),
        "product": f"p{rng.randrange(40)}",
        "price": round(rng.uniform(1.0, 120.0), 2),
        "qty": rng.randrange(1, 15),
        "discount": round(rng.random() * 0.3, 3),
    } for _ in range(int(40_000 * scale))]


def _sql_query(df):
    from ..sql import avg_, col, count_, max_, sum_
    return (df.with_column("revenue", col("price") * col("qty"))
            .with_column("net", col("revenue") * (1 - col("discount")))
            .where((col("qty") > 2) & (col("net") > 25.0))
            .group_by("region", "product")
            .agg(net=sum_(col("net")), orders=count_(),
                 mean_price=avg_(col("price")), top=max_(col("revenue"))))


def measure_sql_analytics(scale: float = 1.0,
                          reps: int = 3) -> Dict[str, Any]:
    """A/B the columnar engine against the row interpreter, end to end.

    Both legs run the identical optimized logical plan through the local
    executor on a fresh context per run; results must match row-for-row
    (repr equality).  Reported as best-of-``reps``, legs interleaved.
    """
    from ..sql import DataFrame
    rows = _sql_rows(scale)

    def run(leg: str):
        ctx = DataflowContext(default_parallelism=8, options=ExecOptions(
            columnar=(leg == "current")))
        q = _sql_query(DataFrame.from_rows(ctx, rows))
        return q.collect, _reprs

    return _speedup_report(len(rows),
                           interleaved_ab(("baseline", "current"), run, reps))


# ---------------------------------------------------------------------------
# SQL joins: vectorized block-shuffle join vs the row-interpreter join
# ---------------------------------------------------------------------------

def _join_tables(scale: float) -> Tuple[List[Dict[str, Any]],
                                        List[Dict[str, Any]]]:
    rng = random.Random(27)
    # dim sits under the default broadcast threshold so the adaptive leg
    # exercises the broadcast-join switch (the guarded A/B runs AQE off)
    n_dim = 800
    fact = [{"k": rng.randrange(n_dim), "v": rng.randrange(1000)}
            for _ in range(int(60_000 * scale))]
    dim = [{"k": i, "label": f"g{i % 40}"} for i in range(n_dim)]
    return fact, dim


def _join_query(ctx, fact, dim):
    from ..sql import DataFrame, col, count_, sum_
    f = DataFrame.from_rows(ctx, fact, name="fact")
    d = DataFrame.from_rows(ctx, dim, name="dim")
    # join + aggregate: the shape AQE and the join kernels target.  The
    # aggregate keeps the measurement on the join itself — a bare join
    # materializes one output dict per matched row in *both* legs, and
    # that Python-object construction would dominate either engine.
    return (f.join(d, on="k")
            .group_by("label").agg(n=count_(), s=sum_(col("v"))))


def measure_sql_join(scale: float = 1.0, reps: int = 3) -> Dict[str, Any]:
    """A/B the vectorized hash join against the row-interpreter join.

    Both legs run the identical optimized logical plan (adaptive
    execution off) and must agree row-for-row; best-of-``reps``, legs
    interleaved.  A third, unguarded leg re-runs the columnar plan with
    adaptive execution ON and asserts the result *set* is unchanged —
    the "AQE never changes results" acceptance check, measured at bench
    scale on every run.
    """
    from ..sql import AdaptiveConfig
    fact, dim = _join_tables(scale)
    reference: List[str] = []

    def digest(out) -> List[str]:
        nonlocal reference
        reference = _reprs(out)
        return reference

    def run(leg: str):
        ctx = DataflowContext(default_parallelism=8, options=ExecOptions(
            columnar=(leg == "current")))
        return _join_query(ctx, fact, dim).collect, digest

    times = interleaved_ab(("baseline", "current"), run, reps)
    # adaptive leg: same plan, AQE on — the result set must not change
    ctx = DataflowContext(default_parallelism=8, options=ExecOptions(
        adaptive=AdaptiveConfig()))
    q = _join_query(ctx, fact, dim)
    t0 = time.perf_counter()
    adaptive_out = q.collect()
    adaptive_secs = time.perf_counter() - t0
    if sorted(map(repr, adaptive_out)) != sorted(reference):
        raise AssertionError("adaptive execution changed the join result")
    report = q.last_adaptive_report
    return {
        **_speedup_report(len(fact), times),
        "dim_records": len(dim),
        "adaptive": {
            "wall_seconds": adaptive_secs,
            "consistent": True,
            "decisions": report.kinds() if report else [],
        },
    }


# ---------------------------------------------------------------------------
# narrow-chain fusion: fused vs per-op pipelines on the local executor
# ---------------------------------------------------------------------------

def _chain_dataset(ctx: DataflowContext, scale: float):
    n = int(250_000 * scale)
    return (ctx.parallelize(range(n), 16)
            .map(lambda x: x * 3 + 1)
            .filter(lambda x: x % 7 != 0)
            .flat_map(lambda x: (x, x ^ 21))
            .map(lambda x: x & 0xFFFF)
            .filter(lambda x: x % 3 != 1)
            .map(lambda x: (x % 1024, x))
            .map_values(lambda v: v * 2)
            .map(lambda kv: kv[0] + kv[1])
            .filter(lambda x: x % 5 != 2))


def measure_narrow_chain(scale: float = 1.0, reps: int = 3) -> Dict[str, Any]:
    """A/B narrow-chain fusion on a 9-op element-wise pipeline.

    Results must be byte-identical (pickle equality) between legs; each
    run uses a fresh context so nothing is cached across legs.
    """
    import pickle

    def run(leg: str):
        ctx = DataflowContext(default_parallelism=8, options=ExecOptions(
            fusion=(leg == "current")))
        return _chain_dataset(ctx, scale).collect, pickle.dumps

    times = interleaved_ab(("baseline", "current"), run, reps)
    return _speedup_report(int(250_000 * scale), times)


# ---------------------------------------------------------------------------
# process-pool backend: warm multi-process execution vs in-process
# ---------------------------------------------------------------------------

#: The pool headline basket: the CPU-bound basket members.  The pool
#: backend exists to break the GIL ceiling, so its guard runs on jobs
#: whose wall-clock is compute (not data movement): wordcount's
#: tokenize+combine over real text, and a 7-op fused narrow chain whose
#: input expands *inside* the workers from 16 integer seeds (so the legs
#: measure parallel execution, not pickling a large source).  Data-bound
#: jobs (terasort ships its whole dataset both ways) are covered by the
#: equivalence tests but not guarded — at in-memory bench scale they are
#: bandwidth-bound and a multi-process win there would be dishonest.
POOL_HEADLINE = ("wordcount", "fused_chain")

#: Worker counts swept for the scaling curve (EXPERIMENTS P1).
POOL_SWEEP = (1, 2, 4)


def _pool_data_wordcount(scale: float):
    docs = zipf_text(n_docs=int(12_000 * scale), words_per_doc=160,
                     vocab_size=4000, skew=1.05, seed=31)
    return docs, int(12_000 * scale) * 160


def _pool_plan_wordcount(ctx: DataflowContext, docs):
    return (ctx.parallelize(docs, 16)
            .flat_map(str.split)
            .map(lambda w: (w, 1))
            .reduce_by_key(lambda a, b: a + b, 8))


def _pool_data_chain(scale: float):
    n = int(800_000 * scale)
    return n, n


def _pool_plan_chain(ctx: DataflowContext, n: int):
    per = max(1, n // 16)
    return (ctx.parallelize(range(16), 16)
            .flat_map(lambda p, _n=per: range(p * _n, (p + 1) * _n))
            .map(lambda x: x * 3 + 1)
            .filter(lambda x: x % 7 != 0)
            .flat_map(lambda x: (x, x ^ 21))
            .map(lambda x: (x * 2654435761) & 0xFFFFFFFF)
            .filter(lambda x: x % 3 != 1)
            .map(lambda x: (x & 1023, x))
            .reduce_by_key(lambda a, b: (a + b) & 0xFFFFFFFF, 8))


_POOL_JOBS: Dict[str, Tuple[Callable, Callable]] = {
    "wordcount": (_pool_data_wordcount, _pool_plan_wordcount),
    "fused_chain": (_pool_data_chain, _pool_plan_chain),
}


def _pool_leg(plan: Callable, data,
              backend: Optional[ProcessPoolBackend]):
    """Set up one collect on a fresh context, for :func:`interleaved_ab`.

    The pool leg attaches the shared warm backend (workers already
    spawned) but uses a fresh context, so each rep pays the real
    per-job dispatch cost: plan priming, payload shipping, bucket-file
    streaming, result return.  The digest closes the context.
    """
    ctx = DataflowContext(default_parallelism=16)
    if backend is not None:
        ctx.attach_pool(backend)
        ctx.backend = "pool"

    def digest(out) -> int:
        ctx.close()
        return _checksum(out)

    return plan(ctx, data).collect, digest


def measure_pool_backend(scale: float = 1.0,
                         sweep: Sequence[int] = POOL_SWEEP,
                         reps: int = 2) -> Dict[str, Any]:
    """A/B the warm process pool against in-process execution.

    For each worker count in ``sweep``, runs the CPU-bound headline
    basket (:data:`POOL_HEADLINE`) on both backends, legs interleaved
    rep by rep, best-of-``reps`` per leg.  The pool is spawned and
    warmed (one tiny job) *outside* the timed region — the measurement
    is the steady state a long-lived context sees, which is what the
    warm-pool design buys.  At every worker count the pool leg must
    produce the in-process result (order included; checked via the
    repr-stable checksum, since pickle bytes legitimately differ in
    object sharing after a worker round-trip).

    The ``speedup`` field is the combined basket ratio at the top of
    the sweep; :func:`enforce_guards` in ``bench_p0_wallclock.py``
    holds it to >= 2x at 4 workers when >= 4 cores are present (1.3x
    at reduced scales >= 0.25).

    On runners with fewer than 4 cores the pool *cannot* beat in-process
    execution (the workers time-slice one CPU and pay dispatch overhead
    on top), so a sub-1x ratio is a property of the runner, not the
    code.  The report then sets ``insufficient_cores`` and nulls the
    headline ``speedup`` (the measured ratio stays available as
    ``measured_speedup``), and the pool guards skip — visibly — instead of
    gating on a number that means nothing there.
    """
    data: Dict[str, Any] = {}
    records: Dict[str, int] = {}
    for name, (build_data, _plan) in _POOL_JOBS.items():
        data[name], records[name] = build_data(scale)

    out_sweep: Dict[str, Any] = {}
    for workers in sweep:
        backend = ProcessPoolBackend(n_workers=workers)
        try:
            # spawn + warm outside timing: one tiny job primes imports,
            # the bucket-file tmpdir, and the dispatch path
            warm = DataflowContext(default_parallelism=4)
            warm.attach_pool(backend)
            warm.backend = "pool"
            assert (warm.parallelize(range(8), 4)
                    .map(lambda x: x + 1).collect() == list(range(1, 9)))
            warm.close()

            per: Dict[str, Any] = {}
            for name, (_build, plan) in _POOL_JOBS.items():
                times = interleaved_ab(
                    ("inprocess", "pool"),
                    lambda leg: _pool_leg(
                        plan, data[name], backend if leg == "pool" else None),
                    reps)
                per[name] = _speedup_report(records[name], times,
                                            base="inprocess", cur="pool",
                                            secs_key="seconds")
            tot_in = sum(per[n]["inprocess"]["seconds"] for n in per)
            tot_pool = sum(per[n]["pool"]["seconds"] for n in per)
            out_sweep[str(workers)] = {
                "workloads": per,
                "inprocess_seconds": tot_in,
                "pool_seconds": tot_pool,
                "speedup": tot_in / tot_pool,
            }
        finally:
            backend.shutdown()

    top = out_sweep[str(max(sweep))]
    cpu_count = os.cpu_count() or 1
    insufficient = cpu_count < 4
    return {
        "scale": scale,
        "cpu_count": cpu_count,
        "insufficient_cores": insufficient,
        "start_method": default_start_method(),
        "headline_workloads": list(POOL_HEADLINE),
        "workers_swept": [int(w) for w in sweep],
        "workers": max(sweep),
        "sweep": out_sweep,
        "inprocess_seconds": top["inprocess_seconds"],
        "pool_seconds": top["pool_seconds"],
        "speedup": None if insufficient else top["speedup"],
        "measured_speedup": top["speedup"],
    }


# ---------------------------------------------------------------------------
# event-time streaming: vectorized windowed aggregation + sustained rate
# ---------------------------------------------------------------------------

#: Arrival scenarios swept by the sustained-throughput harness.
STREAM_SCENARIOS = ("uniform", "bursty", "skewed")


def measure_windowed_aggregation(scale: float = 1.0,
                                 reps: int = 3) -> Dict[str, Any]:
    """A/B the vectorized windowed aggregator against the scalar oracle.

    Feeds the identical out-of-order event stream, in the identical
    micro-batches, through the scalar :class:`WatermarkAggregator` fold
    and the vectorized batch path, interleaved rep by rep
    (best-of-``reps`` per leg).  Every rep asserts the two emission logs
    and final flushes are **byte-identical** (pickle) — the speedup is
    meaningless unless the fast path is exact.  ``enforce_guards`` holds
    the speedup to >= 5x at the default scale.
    """
    import pickle

    n_target = int(30_000 * scale)
    rate = 3_000.0
    events = event_stream("skewed", rate, max(n_target / rate, 1.0),
                          n_keys=32, seed=918273)
    _arrival, ts, keys, values = events
    n = len(ts)
    batch_records = 2048
    window = WindowSpec.tumbling(1.0)
    agg = WindowAgg.by_name("sum")

    last: Dict[str, VectorizedWindowAggregator] = {}

    def run(leg: str):
        aggr = last[leg] = VectorizedWindowAggregator(
            window, agg, watermark_delay=0.5, allowed_lateness=0.5,
            vectorized=(leg == "current"))

        def job() -> List:
            out = []
            for lo in range(0, n, batch_records):
                hi = min(lo + batch_records, n)
                out.extend(aggr.add_batch(
                    EventBatch(ts[lo:hi], keys[lo:hi], values[lo:hi])))
            out.extend(aggr.flush())
            return out

        return job, lambda out: pickle.dumps(out, 4)

    report = _speedup_report(
        n, interleaved_ab(("baseline", "current"), run, reps),
        secs_key="seconds")
    report["current"].update(
        fast_batches=last["current"].fast_batches,
        fallback_batches=last["current"].fallback_batches)
    return {
        "scale": scale,
        "batch_records": batch_records,
        "window": "tumbling(1.0)",
        "agg": "sum",
        "scalar": dict(report["baseline"]),
        **report,
        "identical": True,
    }


def _stream_leg(result) -> Dict[str, Any]:
    return {
        "e2e_p99": result.e2e_latency.p99,
        "pipeline_p99": result.pipeline_latency.p99,
        "processed": result.processed_records,
        "shed": result.shed_records,
        "max_source_backlog": result.max_source_backlog,
        "throttled_seconds": result.throttled_seconds,
        "windows_fired": result.windows_fired,
        "conserved": result.conserved,
    }


def measure_sustained_throughput(scale: float = 1.0,
                                 scenarios: Sequence[str] = STREAM_SCENARIOS,
                                 p99_bound: float = 2.0,
                                 iterations: int = 7) -> Dict[str, Any]:
    """SProBench-style sustainable-rate search on the credit pipeline.

    For each arrival scenario, binary-search the highest ingest rate the
    windowed pipeline (backpressure on) sustains with end-to-end p99
    latency <= ``p99_bound`` and exact record conservation.  e2e latency
    — not in-pipeline latency — is the criterion: with credits on, the
    pipeline interior stays bounded under any overload, and all the
    excess shows up as source backlog, which is exactly what "not
    sustainable" means.

    Each scenario then runs three legs at 1.5x its knee: backpressure
    *off* (in-pipeline latency diverges with queue depth), *on* (interior
    bounded, pressure pushed to the source), and *on + admission*
    (token-bucket sheds the excess; every latency bounded, shed records
    accounted — ``conserved`` stays exact in all three).
    """
    duration = max(5.0, 20.0 * min(scale, 1.0))
    cfg = PipelineConfig(backpressure=True)
    capacity = cfg.parallelism / cfg.per_record_cost

    def probe(scenario: str, rate: float, config: PipelineConfig):
        events = event_stream(scenario, rate, duration,
                              seed=271828 + sum(ord(c) for c in scenario))
        return run_event_pipeline(events, config)

    out: Dict[str, Any] = {}
    for scenario in scenarios:
        probes: List[Dict[str, Any]] = []

        def feasible(rate: float) -> bool:
            r = probe(scenario, rate, cfg)
            ok = r.e2e_latency.p99 <= p99_bound and r.conserved
            probes.append({"rate": rate, "e2e_p99": r.e2e_latency.p99,
                           "feasible": ok})
            return ok

        lo, hi = 0.0, 2.0 * capacity
        if feasible(hi):
            lo = hi          # sustained beyond the bracket; report >= hi
        else:
            for _ in range(iterations):
                mid = (lo + hi) / 2.0
                if feasible(mid):
                    lo = mid
                else:
                    hi = mid
        knee = lo
        overload_rate = max(1.5 * knee, 0.3 * capacity)
        admission = AdmissionConfig(rate=max(knee, 1.0),
                                    burst=max(knee, 1.0),
                                    max_backlog=8)
        legs = {
            "off": probe(scenario, overload_rate,
                         PipelineConfig(backpressure=False)),
            "on": probe(scenario, overload_rate, cfg),
            "on_admission": probe(
                scenario, overload_rate,
                PipelineConfig(backpressure=True, admission=admission)),
        }
        out[scenario] = {
            "sustained_rate": knee,
            "probes": probes,
            "overload": {"offered_rate": overload_rate,
                         **{k: _stream_leg(v) for k, v in legs.items()}},
        }
    return {
        "scale": scale,
        "duration": duration,
        "p99_bound": p99_bound,
        "capacity_estimate": capacity,
        "scenarios": out,
    }


# ---------------------------------------------------------------------------
# multi-tenant serving: the end-to-end gateway scenario (ROADMAP item 1)
# ---------------------------------------------------------------------------

#: The tenant mixes the serving benchmark sweeps, in reporting order.
SERVE_MIXES = ("balanced", "heavy_hitter", "bursty_mixed")


def _serve_tenants(mix: str):
    """Tenant specs for one named mix (populations in modeled users)."""
    from ..serve import TenantSpec
    if mix == "balanced":
        return [TenantSpec(name=f"t{i}", profile="web-sql",
                           users=1_500_000, arrival="poisson", slo_p99=20.0)
                for i in range(4)]
    if mix == "heavy_hitter":
        return [
            TenantSpec(name="whale", profile="dataflow", users=2_400_000,
                       arrival="mmpp", weight=1.0, slo_p99=60.0),
            TenantSpec(name="t1", profile="web-sql", users=600_000,
                       arrival="poisson", slo_p99=20.0),
            TenantSpec(name="t2", profile="web-sql", users=600_000,
                       arrival="poisson", slo_p99=20.0),
            TenantSpec(name="t3", profile="streaming", users=600_000,
                       arrival="periodic", slo_p99=25.0),
        ]
    if mix == "bursty_mixed":
        return [
            TenantSpec(name="sql", profile="web-sql", users=1_800_000,
                       arrival="poisson", slo_p99=20.0),
            TenantSpec(name="etl", profile="dataflow", users=500_000,
                       arrival="mmpp", slo_p99=90.0),
            TenantSpec(name="pulse", profile="streaming", users=900_000,
                       arrival="periodic", slo_p99=30.0),
            TenantSpec(name="dag", profile="workflow", users=300_000,
                       arrival="sessions", slo_p99=150.0),
        ]
    raise ValueError(f"unknown tenant mix {mix!r}")


def measure_multi_tenant_serving(scale: float = 1.0,
                                 mixes: Sequence[str] = SERVE_MIXES,
                                 chaos_seeds: Sequence[int] = (0, 1, 2),
                                 ) -> Dict[str, Any]:
    """Run the serving gateway over tenant mixes + a chaos sweep.

    Per mix: one fault-free gateway run reporting per-tenant p99 latency
    and SLO attainment, fleet cost, goodput-per-dollar, and Jain
    fairness over weight-normalized goodput — all backed by exact
    per-tenant conservation (``submitted == rejected + completed +
    failed``, drained).  The millions-of-users populations are simulated
    via Poisson thinning (``sample_frac``): the thinned arrival process
    is statistically the full one at the sample rate, served by a
    proportionally thinned fleet.

    The chaos leg re-runs the bursty mix under renewal fault plans
    (task crashes, stragglers, node failures, load bursts), one per
    seed; every seed must hold conservation exactly, and the worst
    faulted p99 must stay within a constant factor of fault-free
    (graceful degradation, no unbounded divergence).
    """
    from ..chaos.plan import FaultPlan
    from ..serve import ServeConfig, run_gateway

    horizon = max(20.0, 60.0 * min(scale, 1.0))
    sample_frac = 5e-3
    out_mixes: Dict[str, Any] = {}
    for mix in mixes:
        tenants = _serve_tenants(mix)
        cfg = ServeConfig(horizon=horizon, sample_frac=sample_frac, seed=17)
        t0 = time.perf_counter()
        report = run_gateway(tenants, cfg)
        wall = time.perf_counter() - t0
        summary = report.summary()
        n_requests = sum(t.submitted for t in report.tenants.values())
        out_mixes[mix] = {
            **summary,
            "wall_seconds": wall,
            "simulated_requests": n_requests,
            "requests_per_wall_sec": n_requests / wall if wall > 0 else 0.0,
        }
        if not report.conservation_ok():
            raise RuntimeError(
                f"serving conservation violated in mix {mix!r}")

    chaos_tenants = _serve_tenants("bursty_mixed")
    clean_cfg = ServeConfig(horizon=horizon, sample_frac=sample_frac,
                            seed=17)
    clean = run_gateway(chaos_tenants, clean_cfg)
    chaos_runs: Dict[str, Any] = {}
    all_conserved = True
    worst_ratio = 0.0
    for seed in chaos_seeds:
        plan = FaultPlan.renewal(
            int(seed), horizon=horizon,
            rates={"task_crash": 0.1, "slow_node": 0.02,
                   "node_fail": 0.01, "load_burst": 0.02},
            mean_duration=max(4.0, horizon / 8.0))
        cfg = ServeConfig(horizon=horizon, sample_frac=sample_frac,
                          seed=int(seed))
        faulted = run_gateway(chaos_tenants, cfg, plan=plan)
        conserved = faulted.conservation_ok() and all(
            t.inflight == 0 for t in faulted.tenants.values())
        all_conserved = all_conserved and conserved
        ratio = faulted.worst_p99() / max(clean.worst_p99(), 1e-9)
        worst_ratio = max(worst_ratio, ratio)
        chaos_runs[str(seed)] = {
            "injections": len(plan),
            "conserved": conserved,
            "worst_p99": faulted.worst_p99(),
            "p99_ratio_vs_clean": ratio,
            "jain_fairness": faulted.jain_fairness(),
        }
    return {
        "scale": scale,
        "horizon": horizon,
        "sample_frac": sample_frac,
        "mixes": out_mixes,
        "chaos_sweep": {
            "seeds": [int(s) for s in chaos_seeds],
            "clean_worst_p99": clean.worst_p99(),
            "all_conserved": all_conserved,
            "max_p99_ratio_vs_clean": worst_ratio,
            "graceful": worst_ratio <= 10.0,
            "runs": chaos_runs,
        },
    }


# ---------------------------------------------------------------------------
# observability overhead: the off-by-default guarantee, measured
# ---------------------------------------------------------------------------

class _NoopObserver:
    """Does the full per-dispatch observer call, records nothing."""

    def on_event(self, sim, event, t: float) -> None:
        pass


def measure_obs_overhead(scale: float = 1.0, reps: int = 15,
                         name: str = "wordcount",
                         attempts: int = 3,
                         guard: float = 0.05) -> Dict[str, Any]:
    """Measure what observability costs when it is off (and when on).

    Three interleaved legs of the same end-to-end job:

    * ``off`` — the default: no tracer, no registry, no observer.
    * ``traced`` — tracer + metrics registry installed.  The traced path
      performs a strict superset of the disabled path's instrumentation
      work (the same module-global loads and ``None`` checks, plus all
      the actual recording), so ``traced/off`` **upper-bounds** the
      disabled overhead — this ratio is what the <5% guard enforces.
    * ``noop`` — a do-nothing kernel observer attached, one Python call
      per DES event dispatch.  Informational: nothing attaches a
      per-event observer unless kernel-event tracing or profiling is
      explicitly requested, so this is the opt-in floor, not a cost the
      default path ever pays.

    All legs must compute the identical result.  Legs run through
    :func:`interleaved_ab`; the reported overheads are the
    :func:`median_ratio` of the per-rep ratios, and :func:`best_trial`
    retries (up to ``attempts`` trials) while the guarded ratio reads
    above ``guard``.
    """
    return best_trial(lambda: _measure_obs_overhead_once(scale, reps, name),
                      "enabled_overhead", attempts, guard)


def _measure_obs_overhead_once(scale: float, reps: int,
                               name: str) -> Dict[str, Any]:
    """One trial of the off/noop/traced A/B (see measure_obs_overhead)."""
    from ..obs import metrics as obs_metrics
    from ..obs import trace as obs_trace
    from ..obs.metrics import MetricsRegistry
    from ..obs.trace import Tracer

    n_records = 0
    tracers: List[Tracer] = []

    def run(leg: str):
        nonlocal n_records
        sim, ctx, engine = _fresh()
        ds, n_records, digest = _JOB_BUILDERS[name](ctx, scale)
        if leg == "noop":
            sim.attach_observer(_NoopObserver())
        elif leg == "traced":
            tracers.append(Tracer())
            obs_trace.set_tracer(tracers[-1])
            obs_metrics.set_registry(MetricsRegistry())

        def job():
            try:
                return sim.run_until_done(engine.collect(ds))
            finally:
                if leg == "traced":
                    obs_trace.set_tracer(None)
                    obs_metrics.set_registry(None)

        return job, lambda res: digest(res.value)

    times = interleaved_ab(("off", "noop", "traced"), run, reps)
    for tracer in tracers:
        problems = tracer.validate()
        if problems:
            raise AssertionError(
                f"traced leg produced an invalid trace: {problems}")
    return {
        "workload": name,
        "records": n_records,
        "off_seconds": min(times["off"]),
        "noop_seconds": min(times["noop"]),
        "traced_seconds": min(times["traced"]),
        "traced_spans": len(tracers[-1].spans),
        # the guarded number: disabled overhead <= enabled overhead
        "enabled_overhead": median_ratio(times, "traced", "off") - 1.0,
        # informational: one observer call per kernel dispatch (opt-in)
        "kernel_observer_overhead":
            median_ratio(times, "noop", "off") - 1.0,
    }


def measure_resilience_overhead(scale: float = 1.0, reps: int = 15,
                                name: str = "wordcount",
                                attempts: int = 3,
                                guard: float = 0.05) -> Dict[str, Any]:
    """Measure what armed-but-idle resilience policies cost.

    Two interleaved legs of the same end-to-end job:

    * ``off`` — ``EngineConfig.resilience=None``: the default policies
      (each job's retry session runs ``DEFAULT_TASK_RETRY``; no hedge,
      no deadline).
    * ``armed`` — a full :class:`ResiliencePolicies` stack (retry session
      with backoff + budget, hedging at 3x the tail quantile, a deadline
      that never fires).  On this healthy homogeneous run no retry, no
      deadline and no budget can trigger, so the measured difference is
      the pure bookkeeping cost of the extra policies: the deadline
      watchdog and the hedge-armed poll timer.

    Both legs must compute the identical result.  The measurement and
    noise handling mirror :func:`measure_obs_overhead`.
    """
    from ..resilience import HedgePolicy, ResiliencePolicies, RetryPolicy

    policies = ResiliencePolicies(
        retry=RetryPolicy(max_attempts=50, budget=10_000, base_delay=0.01,
                          seed=0),
        hedge=HedgePolicy(multiplier=3.0),
        deadline_timeout=1e9)

    def trial() -> Dict[str, Any]:
        times, n_records = _job_ab(
            name, scale, reps,
            {"off": {}, "armed": {"resilience": policies}})
        return {
            "workload": name,
            "records": n_records,
            "off_seconds": min(times["off"]),
            "armed_seconds": min(times["armed"]),
            # the guarded number: armed-but-idle policies vs no policies
            "armed_overhead": median_ratio(times, "armed", "off") - 1.0,
        }

    return best_trial(trial, "armed_overhead", attempts, guard)


def _job_ab(name: str, scale: float, reps: int,
            configs: Dict[str, Dict[str, Any]],
            ) -> Tuple[Dict[str, List[float]], int]:
    """Interleave one basket job under per-leg :func:`_fresh` arguments
    (``options`` and ``EngineConfig`` overrides); returns (per-leg
    seconds, records per job)."""
    n_records = 0

    def run(leg: str):
        nonlocal n_records
        sim, ctx, engine = _fresh(**configs[leg])
        ds, n_records, digest = _JOB_BUILDERS[name](ctx, scale)
        return ((lambda: sim.run_until_done(engine.collect(ds))),
                lambda res: digest(res.value))

    return interleaved_ab(tuple(configs), run, reps), n_records


def measure_integrity_overhead(scale: float = 1.0, reps: int = 15,
                               name: str = "wordcount",
                               attempts: int = 3,
                               guard: float = 0.05) -> Dict[str, Any]:
    """Measure what the checksummed data plane costs when nothing rots.

    Two interleaved A/Bs of checksums on (the default) vs off:

    * ``end_to_end`` — the same simulated job with
      ``ExecOptions.checksums`` toggled: the on leg seals every
      registered map-output bucket (pickle + chunk CRC32) and verifies
      each bucket on fetch; the off leg skips both.  This is the guarded
      number — the data plane must cost < 5% on a clean run.
    * ``spill`` — the process-pool spill path in isolation:
      :func:`~repro.dataflow.shuffleio.write_bucket_file` +
      :func:`~repro.dataflow.shuffleio.read_bucket_file` over a
      realistic bucket set with and without CRCs
      (informational; the CRC rides the same buffer the pickler just
      produced, so it is a small fraction of serialization cost).

    Both legs must compute the identical result.  The measurement and
    noise handling mirror :func:`measure_obs_overhead`.
    """
    return best_trial(
        lambda: _measure_integrity_overhead_once(scale, reps, name),
        "checksum_overhead", attempts, guard)


def _measure_integrity_overhead_once(scale: float, reps: int,
                                     name: str) -> Dict[str, Any]:
    """One trial of the checksums on/off A/B (see the public wrapper)."""
    import tempfile

    times, n_records = _job_ab(
        name, scale, reps,
        {"off": {"options": ExecOptions(checksums=False)},
         "on": {"options": ExecOptions()}})

    # spill leg: CRC-stamped bucket files written + fully read back
    rng = random.Random(23)
    buckets = [[(f"k{rng.randrange(4000)}", rng.random())
                for _ in range(int(2_000 * max(scale, 0.1)))]
               for _ in range(16)]

    def spill(leg: str):
        def write_and_read() -> List:
            offsets = shuffleio.write_bucket_file(path, buckets,
                                                  checksums=leg == "on")
            return [shuffleio.read_bucket_file(path, offsets, r)
                    for r in range(len(buckets))]
        return write_and_read, _same

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spill.buckets")
        spill_times = interleaved_ab(("off", "on"), spill, reps)

    return {
        "workload": name,
        "records": n_records,
        "off_seconds": min(times["off"]),
        "on_seconds": min(times["on"]),
        # the guarded number: sealed + verified map outputs vs neither
        "checksum_overhead": median_ratio(times, "on", "off") - 1.0,
        "spill_records": sum(len(b) for b in buckets),
        "spill_off_seconds": min(spill_times["off"]),
        "spill_on_seconds": min(spill_times["on"]),
        # informational: CRC32 over the just-pickled buffer
        "spill_checksum_overhead":
            median_ratio(spill_times, "on", "off") - 1.0,
    }


def profile_end_to_end(name: str = "wordcount",
                       scale: float = 1.0) -> Tuple[Dict[str, Any], str]:
    """Run one basket job under :func:`repro.obs.profile`.

    Returns ``(report_dict, rendered_text)`` — the kernel event-kind mix
    and the per-operator self-time profile (``--profile`` on the P0
    bench prints the text).
    """
    from ..obs import profile as obs_profile

    sim, ctx, engine = _fresh()
    ds, n_records, _digest = _JOB_BUILDERS[name](ctx, scale)
    with obs_profile(sim) as prof:
        sim.run_until_done(engine.collect(ds))
    report = prof.report()
    report["workload"] = name
    report["records"] = n_records
    return report, prof.render()


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

def run_suite(scale: float = 1.0, verbose: bool = True,
              pool_workers: Optional[int] = 4) -> Dict[str, Any]:
    """Run the whole basket; returns the ``BENCH_wallclock.json`` payload.

    ``pool_workers`` is the top of the process-pool scaling sweep
    (``None`` or 0 skips the pool measurement entirely — the
    ``--backend inprocess`` escape hatch).
    """
    workloads: Dict[str, Any] = {}
    for name in SIM_BASKET:
        dep, task_outputs = _WRITE_BUILDERS[name](scale)
        write = measure_shuffle_write(dep, task_outputs)
        e2e = measure_end_to_end(name, scale)
        workloads[name] = {"shuffle_write": write, "end_to_end": e2e}
        if verbose:
            print(f"{name:>15}: shuffle-write "
                  f"{write['records_per_sec']:>12,.0f} rec/s  "
                  f"end-to-end {e2e['wall_seconds']:.3f} s, "
                  f"{e2e['sim_events']} sim events")
    workloads["sql_analytics"] = measure_sql_analytics(scale)
    workloads["sql_join"] = measure_sql_join(scale)
    workloads["narrow_chain"] = measure_narrow_chain(scale)
    workloads["windowed_aggregation"] = measure_windowed_aggregation(scale)
    if verbose:
        for name in ("sql_analytics", "sql_join", "narrow_chain",
                     "windowed_aggregation"):
            w = workloads[name]
            print(f"{name:>15}: {w['current']['records_per_sec']:>12,.0f} "
                  f"rec/s  [{w['speedup']:.2f}x vs interpreter]")
    streaming = measure_sustained_throughput(scale)
    if verbose:
        knees = "  ".join(
            f"{s} {v['sustained_rate']:,.0f} rec/s"
            for s, v in streaming["scenarios"].items())
        print(f"{'sustained':>15}: {knees}  "
              f"(p99 <= {streaming['p99_bound']} s)")
    serving = measure_multi_tenant_serving(scale)
    if verbose:
        lines = "  ".join(
            f"{m} jain {v['jain_fairness']:.3f} "
            f"${v['goodput_per_dollar']:,.0f}/$"
            for m, v in serving["mixes"].items())
        sweep_s = serving["chaos_sweep"]
        print(f"{'serving':>15}: {lines}  chaos "
              f"[conserved={sweep_s['all_conserved']} "
              f"p99x{sweep_s['max_p99_ratio_vs_clean']:.1f}]")
    # clamp the overhead A/B to the full-scale workload: at smoke scales
    # the job is short enough that scheduler/load noise alone is
    # percent-level, which would make a 5% guard flaky — and fixed costs
    # dominate, so full scale barely costs more wall time anyway
    obs = measure_obs_overhead(max(scale, 1.0))
    if verbose:
        print(f"{'obs_overhead':>15}: enabled "
              f"{100 * obs['enabled_overhead']:+.1f}% "
              f"({obs['traced_spans']} spans)  opt-in kernel observer "
              f"{100 * obs['kernel_observer_overhead']:+.1f}%")
    resil = measure_resilience_overhead(max(scale, 1.0))
    if verbose:
        print(f"{'resilience':>15}: armed-but-idle "
              f"{100 * resil['armed_overhead']:+.1f}%")
    integ = measure_integrity_overhead(max(scale, 1.0))
    if verbose:
        print(f"{'integrity':>15}: checksums on "
              f"{100 * integ['checksum_overhead']:+.1f}% end-to-end, "
              f"{100 * integ['spill_checksum_overhead']:+.1f}% spill")
    pool = None
    if pool_workers:
        sweep = tuple(w for w in POOL_SWEEP if w < pool_workers)
        sweep += (pool_workers,)
        pool = measure_pool_backend(scale, sweep=sweep)
        if verbose:
            curve = "  ".join(
                f"{w}w {pool['sweep'][str(w)]['speedup']:.2f}x"
                for w in pool["workers_swept"])
            note = (" [insufficient cores: headline nulled]"
                    if pool["insufficient_cores"] else "")
            print(f"{'pool_backend':>15}: {curve}  "
                  f"({pool['cpu_count']} cores, "
                  f"{pool['start_method']} start){note}")
    payload = {
        "schema": SCHEMA_VERSION,
        "scale": scale,
        "meta": bench_metadata(),
        "workloads": workloads,
        "obs_overhead": obs,
        "resilience_overhead": resil,
        "integrity_overhead": integ,
        "pool_backend": pool,
        "sustained_throughput": streaming,
        "multi_tenant_serving": serving,
        "summary": _summarize(workloads, obs, resil, pool, streaming,
                              serving, integ),
    }
    if verbose:
        s = payload["summary"]
        print(f"{'basket':>15}: shuffle-write "
              f"{s['records_per_sec_current']:,.0f} rec/s; wordcount "
              f"{s['wordcount_sim_events']} sim events")
    return payload


def _summarize(workloads: Dict[str, Any],
               obs: Optional[Dict[str, Any]] = None,
               resil: Optional[Dict[str, Any]] = None,
               pool: Optional[Dict[str, Any]] = None,
               streaming: Optional[Dict[str, Any]] = None,
               serving: Optional[Dict[str, Any]] = None,
               integ: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    writes = [workloads[n]["shuffle_write"] for n in HEADLINE]
    return {
        "headline_workloads": list(HEADLINE),
        "records_per_sec_current": (sum(w["records"] for w in writes)
                                    / sum(w["seconds"] for w in writes)),
        "wordcount_sim_events":
            workloads["wordcount"]["end_to_end"]["sim_events"],
        "sql_speedup": workloads["sql_analytics"]["speedup"],
        "join_speedup": workloads["sql_join"]["speedup"],
        "join_adaptive_consistent":
            workloads["sql_join"]["adaptive"]["consistent"],
        "fusion_speedup": workloads["narrow_chain"]["speedup"],
        "obs_enabled_overhead": obs["enabled_overhead"] if obs else None,
        "obs_kernel_observer_overhead":
            obs["kernel_observer_overhead"] if obs else None,
        "resilience_armed_overhead":
            resil["armed_overhead"] if resil else None,
        "integrity_checksum_overhead":
            integ["checksum_overhead"] if integ else None,
        "integrity_spill_overhead":
            integ["spill_checksum_overhead"] if integ else None,
        "pool_speedup": pool["speedup"] if pool else None,
        "pool_workers": pool["workers"] if pool else None,
        "pool_insufficient_cores":
            pool["insufficient_cores"] if pool else None,
        "windowed_speedup": workloads["windowed_aggregation"]["speedup"]
            if "windowed_aggregation" in workloads else None,
        "sustained_rates": {
            s: v["sustained_rate"]
            for s, v in streaming["scenarios"].items()
        } if streaming else None,
        "serving_jain_fairness": {
            m: v["jain_fairness"] for m, v in serving["mixes"].items()
        } if serving else None,
        "serving_goodput_per_dollar": {
            m: v["goodput_per_dollar"] for m, v in serving["mixes"].items()
        } if serving else None,
        "serving_chaos_conserved":
            serving["chaos_sweep"]["all_conserved"] if serving else None,
        "serving_chaos_graceful":
            serving["chaos_sweep"]["graceful"] if serving else None,
    }


def write_report(payload: Dict[str, Any], path: str) -> None:
    """Write the payload as stable, diff-friendly JSON."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
