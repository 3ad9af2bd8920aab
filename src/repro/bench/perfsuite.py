"""Wall-clock performance suite for the dataflow hot paths.

Unlike the experiment harnesses (which report *simulated* time), this
module measures **real wall-clock** behaviour of the engine over a fixed
workload basket — wordcount, terasort, pagerank, and a skewed map-side
combine.  ``benchmarks/bench_p0_wallclock.py`` drives it and writes
``BENCH_wallclock.json`` so every PR leaves a comparable perf trajectory
(SProBench-style: tracked, reproducible numbers make perf work credible).

Two single-leg measurements per simulated-cluster workload:

* ``shuffle_write`` — records/sec through :func:`~repro.dataflow.
  shuffleio.run_map_task` on that workload's listed map-task outputs,
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
optimizers against their reference paths and the overhead A/Bs —
runs through one loop, :func:`interleaved_ab` (legs rotated each rep, a
GC collection before each timed run, every leg's result digest equal to
the first), so each ratio is a pure execution-efficiency measurement,
and every guarded ratio is a :func:`median_ratio`.  Every bound the
report is held to is one row of :data:`GUARDS`.
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import tempfile
import time
from contextlib import contextmanager, nullcontext
from typing import (Any, Callable, ContextManager, Dict, List, NamedTuple,
                    Optional, Sequence, Tuple)

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
from ..resilience import (AdmissionConfig, HedgePolicy, ResiliencePolicies,
                          RetryPolicy)
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
           "STREAM_SCENARIOS", "SERVE_MIXES", "SCHEMA_VERSION", "GUARDS",
           "Guard", "check_guards", "pool_summary", "run_suite",
           "write_report", "measure_shuffle_write", "measure_end_to_end",
           "measure_sql_analytics", "measure_sql_join", "measure_narrow_chain",
           "measure_pool_backend", "measure_windowed_aggregation",
           "measure_sustained_throughput", "measure_multi_tenant_serving",
           "measure_overhead", "profile_end_to_end"]

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
#:
#: v13 adds ``chaos_overhead`` (an empty fault plan attached vs bare,
#: per workload, as a median of per-rep ratios) and the summary's
#: ``chaos_worst_ratio``.
#:
#: v14 makes every guarded ratio a median of per-rep ratios and gives
#: every A/B one shape: ``<leg>_seconds`` (best of reps) per leg, then
#: ``speedup`` (the optimizer A/Bs, the pool) or, in the four overhead
#: sections, one entry per A/B with ``<leg>_ratio`` per non-base leg and
#: the guarded reading under its :data:`GUARDS` key.  The chaos wordcount
#: leg runs the basket wordcount job.  The A/Bs' ``records_per_sec``,
#: the windowed ``scalar`` alias, ``traced_spans`` and the serving
#: ``graceful`` verdict go; the summary gains ``backpressure_tightening``,
#: ``serving_balanced_jain`` and ``serving_chaos_p99_ratio`` (the inputs
#: of the streaming and serving bounds) and loses ``serving_chaos_graceful``.
SCHEMA_VERSION = 14

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
# the guard table: every bound the report is held to, stated once
# ---------------------------------------------------------------------------

class Guard(NamedTuple):
    """A bound on one ``summary`` value of the report.

    A speedup must reach ``bound`` (``smoke`` below scale 1.0, where
    fixed per-job costs dominate); a ``ceiling`` value, an overhead, must
    stay under it.  ``skip(summary, scale)`` names why the bound does not
    apply to a run, or returns None.
    """

    key: str
    bound: float
    smoke: Optional[float] = None
    ceiling: bool = False
    skip: Optional[Callable[[Dict[str, Any], float], Optional[str]]] = None

    def limit(self, scale: float) -> float:
        """The bound that applies at ``scale``."""
        return self.bound if scale >= 1.0 or self.smoke is None \
            else self.smoke

    def check(self, summary: Dict[str, Any], scale: float) -> str:
        """One line stating the reading against the bound; raises
        ``AssertionError`` naming the key when the reading is past it."""
        reason = self.skip(summary, scale) if self.skip else None
        if reason:
            return f"{self.key}: skipped, {reason}"
        value, limit = summary[self.key], self.limit(scale)
        ok = value < limit if self.ceiling else value >= limit
        line = (f"{self.key} {value:.4g} "
                f"{'<' if self.ceiling else '>='} {limit:g}")
        if not ok:
            raise AssertionError(f"guard failed: {line} does not hold")
        return line


def _pool_skip(summary: Dict[str, Any], scale: float) -> Optional[str]:
    """The pool floor needs >= 4 cores (fewer cannot show a win: the
    workers time-slice the same CPUs), a 4-worker sweep, and jobs long
    enough (scale >= 0.25) that dispatch overhead does not dominate."""
    if summary["pool_workers"] is None:
        return "the pool sweep did not run"
    if summary["pool_insufficient_cores"]:
        return "fewer than 4 cores"
    if summary["pool_workers"] < 4 or scale < 0.25:
        return "needs a 4-worker sweep at scale >= 0.25"
    return None


#: What a disabled, idle or empty feature may cost end to end.
_OVERHEAD_BOUND = 0.05

#: Every bound, keyed by the ``summary`` value it holds.  Reduced scales
#: (CI runs 0.5) get the ``smoke`` floors.  The overhead A/Bs always run
#: at scale >= 1.0 and retry a trial while it reads past its bound (see
#: :func:`measure_overhead`).
GUARDS: Dict[str, Guard] = {g.key: g for g in (
    Guard("fusion_speedup", 1.2),
    Guard("sql_speedup", 1.5, smoke=1.1),
    Guard("join_speedup", 3.0, smoke=1.2),
    Guard("windowed_speedup", 5.0, smoke=1.5),
    Guard("pool_speedup", 2.0, smoke=1.3, skip=_pool_skip),
    Guard("obs_enabled_overhead", _OVERHEAD_BOUND, ceiling=True),
    Guard("resilience_armed_overhead", _OVERHEAD_BOUND, ceiling=True),
    Guard("integrity_checksum_overhead", _OVERHEAD_BOUND, ceiling=True),
    Guard("chaos_worst_ratio", 1.25, ceiling=True),
    # off/on pipeline p99 on the uniform overload leg: backpressure
    # keeps the pipeline interior bounded
    Guard("backpressure_tightening", 2.0),
    # statistically identical tenants get equal weighted goodput
    Guard("serving_balanced_jain", 0.9),
    # worst faulted p99 over fault-free: graceful, not divergent
    Guard("serving_chaos_p99_ratio", 10.0, ceiling=True),
)}


def check_guards(summary: Dict[str, Any], scale: float) -> List[str]:
    """Check every :data:`GUARDS` row; returns one line per row, or
    raises one ``AssertionError`` naming every row past its bound."""
    lines, failed = [], []
    for guard in GUARDS.values():
        try:
            lines.append(guard.check(summary, scale))
        except AssertionError as err:
            failed.append(str(err))
    if failed:
        raise AssertionError("; ".join(failed))
    return lines


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


def _seconds(times: Dict[str, List[float]]) -> Dict[str, float]:
    """Best-of-reps seconds per leg, as ``<leg>_seconds``."""
    return {f"{leg}_seconds": min(ts) for leg, ts in times.items()}


def _speedup(times: Dict[str, List[float]], base: str = "baseline",
             cur: str = "current") -> Dict[str, Any]:
    """:func:`_seconds`, plus ``speedup``: the :func:`median_ratio` of
    ``base`` over ``cur``."""
    return {**_seconds(times), "speedup": median_ratio(times, base, cur)}


# ---------------------------------------------------------------------------
# shuffle-write throughput: the vectorized hot path
# ---------------------------------------------------------------------------

def _chunk(records: List, n_tasks: int) -> List[List]:
    size = (len(records) + n_tasks - 1) // n_tasks
    return [records[i:i + size] for i in range(0, len(records), size)]


def measure_shuffle_write(dep: ShuffleDependency, task_outputs: List[List],
                          reps: int = 5) -> Dict[str, Any]:
    """Measure the map-side combine (when ``dep`` asks for one), the
    bucket write and its sizing over one stage's map-task outputs, as
    :func:`~repro.dataflow.shuffleio.run_map_task` does them.

    Each rep is one executor's worth of map tasks (a fresh
    :class:`SizeEstimator`, as each executor holds one); every rep must
    produce identical buckets.  Reports best-of-``reps`` throughput.
    """
    records = sum(len(t) for t in task_outputs)

    def run(_leg: str):
        estimator = SizeEstimator(_WRITE_COST)

        def write(recs: List) -> List[List]:
            out = shuffleio.run_map_task(dep, 0, None, _WRITE_COST, recs)
            out.size(dep.shuffle_id, estimator)
            return out.buckets
        return (lambda: [write(recs) for recs in task_outputs]), _same

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
    (repr equality).  Legs interleaved, ``speedup`` their median ratio.
    """
    from ..sql import DataFrame
    rows = _sql_rows(scale)

    def run(leg: str):
        ctx = DataflowContext(default_parallelism=8, options=ExecOptions(
            columnar=(leg == "current")))
        q = _sql_query(DataFrame.from_rows(ctx, rows))
        return q.collect, _reprs

    return {"records": len(rows),
            **_speedup(interleaved_ab(("baseline", "current"), run, reps))}


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
    execution off) and must agree row-for-row; legs interleaved,
    ``speedup`` their median ratio.  A third, unguarded leg re-runs the
    columnar plan with adaptive execution ON and asserts the result *set*
    is unchanged — the "AQE never changes results" acceptance check,
    measured at bench scale on every run.
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
        "records": len(fact),
        **_speedup(times),
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

    return {"records": int(250_000 * scale),
            **_speedup(interleaved_ab(("baseline", "current"), run, reps))}


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
    rep by rep.  The pool is spawned and warmed (one tiny job)
    *outside* the timed region — the measurement is the steady state a
    long-lived context sees, which is what the warm-pool design buys.  At every worker count the pool leg must
    produce the in-process result (order included; checked via the
    repr-stable checksum, since pickle bytes legitimately differ in
    object sharing after a worker round-trip).

    Each ``speedup`` is a median of per-rep in-process/pool ratios; a
    worker count's combined one sums the basket within each rep.  The
    headline ``speedup`` is the combined ratio at the top of the sweep,
    held to the ``pool_speedup`` row of :data:`GUARDS`.

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
            basket = {"inprocess": [0.0] * reps, "pool": [0.0] * reps}
            for name, (_build, plan) in _POOL_JOBS.items():
                times = interleaved_ab(
                    ("inprocess", "pool"),
                    lambda leg: _pool_leg(
                        plan, data[name], backend if leg == "pool" else None),
                    reps)
                per[name] = {"records": records[name],
                             **_speedup(times, "inprocess", "pool")}
                for leg, ts in times.items():
                    basket[leg] = [b + t for b, t in zip(basket[leg], ts)]
            out_sweep[str(workers)] = {
                "workloads": per, **_speedup(basket, "inprocess", "pool")}
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
    and the vectorized batch path, interleaved rep by rep (``speedup``
    is their median ratio).  Every rep asserts the two emission logs
    and final flushes are **byte-identical** (pickle) — the speedup is
    meaningless unless the fast path is exact.
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

    times = interleaved_ab(("baseline", "current"), run, reps)
    return {
        "scale": scale,
        "batch_records": batch_records,
        "window": "tumbling(1.0)",
        "agg": "sum",
        "records": n,
        **_speedup(times),
        "fast_batches": last["current"].fast_batches,
        "fallback_batches": last["current"].fallback_batches,
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
    faulted p99 over fault-free (``max_p99_ratio_vs_clean``) is held to
    the ``serving_chaos_p99_ratio`` row of :data:`GUARDS` (graceful
    degradation, no unbounded divergence).
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
            "runs": chaos_runs,
        },
    }


# ---------------------------------------------------------------------------
# overhead A/Bs: what a disabled, idle or empty feature costs
# ---------------------------------------------------------------------------

class _NoopObserver:
    """Does the full per-dispatch observer call, records nothing."""

    def on_event(self, sim, event, t: float) -> None:
        pass


@contextmanager
def _noop_observer(sim: Simulator, engine: SimEngine):
    """One Python call per DES event dispatch, recording nothing."""
    sim.attach_observer(_NoopObserver())
    yield


@contextmanager
def _tracing(sim: Simulator, engine: SimEngine):
    """A tracer and a metrics registry installed for the job; the trace
    it leaves must be non-empty and valid."""
    from ..obs import metrics as obs_metrics
    from ..obs import trace as obs_trace

    tracer = obs_trace.Tracer()
    obs_trace.set_tracer(tracer)
    obs_metrics.set_registry(obs_metrics.MetricsRegistry())
    try:
        yield
    finally:
        obs_trace.set_tracer(None)
        obs_metrics.set_registry(None)
    problems = tracer.validate() or ([] if tracer.spans else ["no spans"])
    if problems:
        raise AssertionError(
            f"traced leg produced an invalid trace: {problems}")


@contextmanager
def _empty_fault_plan(sim: Simulator, engine: SimEngine):
    """The cluster and engine chaos adapters started on a plan with no
    events."""
    from ..chaos import ClusterChaos, EngineChaos, FaultPlan

    empty = FaultPlan.scripted([])
    ClusterChaos(engine.cluster, empty).start()
    EngineChaos(engine, empty).start()
    yield


def _engine_ab(**legs: Dict[str, Any]):
    """An A/B of the basket wordcount job.  Each leg gives its
    :func:`_fresh` arguments, plus an optional ``arm(sim, engine)``
    context manager that the timed run executes inside."""
    @contextmanager
    def ab(scale: float):
        def run(leg: str):
            config = dict(legs[leg])
            arm = config.pop("arm", lambda sim, engine: nullcontext())
            sim, ctx, engine = _fresh(**config)
            ds, _records, digest = _job_wordcount(ctx, scale)

            def job():
                with arm(sim, engine):
                    return sim.run_until_done(engine.collect(ds))
            return job, lambda res: digest(res.value)
        yield tuple(legs), run
    return ab


@contextmanager
def _spill_ab(scale: float):
    """The process-pool spill path alone: sealed vs unsealed bucket
    files, written and read back."""
    rng = random.Random(23)
    buckets = [[(f"k{rng.randrange(4000)}", rng.random())
                for _ in range(int(2_000 * max(scale, 0.1)))]
               for _ in range(16)]

    def run(leg: str):
        def write_and_read() -> List:
            offsets = shuffleio.write_bucket_file(path, buckets,
                                                  checksums=leg == "on")
            return [shuffleio.read_bucket_file(path, offsets, r)
                    for r in range(len(buckets))]
        return write_and_read, _same

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spill.buckets")
        yield ("off", "on"), run


@contextmanager
def _stream_ab(scale: float):
    """The checkpointed stateful stream, bare vs with the empty plan's
    operator crash times."""
    from operator import add

    from ..chaos import FaultPlan, operator_crash_times
    from ..streaming.checkpoint import CheckpointConfig, run_stateful_stream

    events = [(i * 0.5, i % 20, 1)
              for i in range(max(500, int(20_000 * scale)))]

    def run(leg: str):
        crashes = (operator_crash_times(FaultPlan.scripted([]))
                   if leg == "attached" else ())
        return ((lambda: run_stateful_stream(
                    events, add, lambda v: v, CheckpointConfig(interval=10.0),
                    crash_times=crashes)),
                lambda out: sorted(out.state.items()))
    yield ("bare", "attached"), run


@contextmanager
def _microbatch_ab(scale: float):
    """The micro-batch engine, bare vs its rate wrapped in the empty
    plan's load bursts."""
    from ..chaos import FaultPlan, burst_rate
    from ..streaming.microbatch import MicroBatchConfig, run_microbatch

    duration = max(20.0, 200.0 * scale)
    config = MicroBatchConfig(batch_interval=1.0, per_record_cost=1e-5,
                              parallelism=4)

    def run(leg: str):
        base = lambda t: 5000.0
        rate = (burst_rate(base, FaultPlan.scripted([]))
                if leg == "attached" else base)
        return ((lambda: run_microbatch(rate, config, duration)),
                lambda res: (res.processed_records, res.batch_times))
    yield ("bare", "attached"), run


class _Overhead(NamedTuple):
    """One overhead A/B: the :data:`GUARDS` key of its reading, its
    A/Bs (name -> ``ab(scale)``, a context manager yielding the legs,
    base first, and the ``run`` that :func:`interleaved_ab` takes), and
    how the reading follows from one trial's report."""

    guard: str
    abs: Dict[str, Callable[[float], ContextManager]]
    reading: Callable[[Dict[str, Any]], float]


#: Armed but idle on a healthy run: retry session with backoff and
#: budget, hedging at 3x the tail quantile, a deadline that never fires.
_IDLE_POLICIES = ResiliencePolicies(
    retry=RetryPolicy(max_attempts=50, budget=10_000, base_delay=0.01,
                      seed=0),
    hedge=HedgePolicy(multiplier=3.0),
    deadline_timeout=1e9)

#: Interleaved reps per overhead A/B trial.
_OVERHEAD_REPS = 15

#: The overhead A/Bs, keyed by report section.  Every leg of an A/B must
#: compute the identical result.
_OVERHEADS: Dict[str, _Overhead] = {
    # What observability costs off and on, on the basket wordcount job.
    # ``traced`` (tracer + registry) does a strict superset of the
    # disabled path's work, so ``traced/off`` upper-bounds the disabled
    # overhead and is the reading.  ``noop`` attaches a do-nothing kernel
    # observer (one call per DES event): the opt-in floor, informational.
    "obs_overhead": _Overhead(
        "obs_enabled_overhead",
        {"wordcount": _engine_ab(off={}, noop={"arm": _noop_observer},
                                 traced={"arm": _tracing})},
        lambda r: r["wordcount"]["traced_ratio"] - 1.0),
    # What armed-but-idle resilience costs: the default policies against
    # the full ``_IDLE_POLICIES`` stack, which nothing on this healthy run
    # triggers — the deadline watchdog and hedge poll timer's bookkeeping.
    "resilience_overhead": _Overhead(
        "resilience_armed_overhead",
        {"wordcount": _engine_ab(off={},
                                 armed={"resilience": _IDLE_POLICIES})},
        lambda r: r["wordcount"]["armed_ratio"] - 1.0),
    # What the checksummed data plane costs when nothing rots:
    # ``ExecOptions.checksums`` on the wordcount job (sealed bucket blobs,
    # verified on fetch; the reading), and the process-pool spill path
    # with and without seals (informational).
    "integrity_overhead": _Overhead(
        "integrity_checksum_overhead",
        {"wordcount": _engine_ab(
            off={"options": ExecOptions(checksums=False)}, on={}),
         "spill": _spill_ab},
        lambda r: r["wordcount"]["on_ratio"] - 1.0),
    # What an attached but empty fault plan costs on the wordcount job,
    # the checkpointed stateful stream and the micro-batch engine; the
    # reading is the worst of the three ``attached_ratio``s.
    "chaos_overhead": _Overhead(
        "chaos_worst_ratio",
        {"wordcount": _engine_ab(bare={}, attached={"arm": _empty_fault_plan}),
         "stream": _stream_ab, "microbatch": _microbatch_ab},
        lambda r: max(ab["attached_ratio"] for ab in r.values())),
}


def measure_overhead(section: str, scale: float = 1.0,
                     reps: int = _OVERHEAD_REPS) -> Dict[str, Any]:
    """Run the :data:`_OVERHEADS` row ``section``.

    ``section`` is ``"obs_overhead"``, ``"resilience_overhead"``,
    ``"integrity_overhead"`` or ``"chaos_overhead"``.  One trial runs
    each A/B through :func:`interleaved_ab` and reports ``<leg>_seconds``
    per leg and, per non-base leg, ``<leg>_ratio``: its
    :func:`median_ratio` over the base leg.  The row's reading goes under
    its :data:`GUARDS` key, and :func:`best_trial` retries the trial, at
    most 3 times, while the reading is not under that bound.
    """
    row = _OVERHEADS[section]

    def trial() -> Dict[str, Any]:
        report: Dict[str, Any] = {}
        for name, ab in row.abs.items():
            with ab(scale) as (legs, run):
                times = interleaved_ab(legs, run, reps)
            report[name] = {
                **_seconds(times),
                **{f"{leg}_ratio": median_ratio(times, leg, legs[0])
                   for leg in legs[1:]}}
        report[row.guard] = row.reading(report)
        return report

    return best_trial(trial, row.guard, 3, GUARDS[row.guard].limit(scale))


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
            print(f"{name:>15}: "
                  f"{w['records'] / w['current_seconds']:>12,.0f} "
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
    # clamp the overhead A/Bs to the full-scale workload: at smoke scales
    # the job is short enough that scheduler/load noise alone is
    # percent-level, which would make the overhead bounds flaky — and
    # fixed costs dominate, so full scale barely costs more wall time
    overheads = {
        section: measure_overhead(section, max(scale, 1.0))
        for section in _OVERHEADS}
    if verbose:
        for section, report in overheads.items():
            row = _OVERHEADS[section]
            ratios = "  ".join(
                f"{name}.{key} {value:.3f}" for name in row.abs
                for key, value in report[name].items()
                if key.endswith("_ratio"))
            print(f"{section:>15}: {row.guard} {report[row.guard]:.3f}  "
                  f"{ratios}")
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
        **overheads,
        "pool_backend": pool,
        "sustained_throughput": streaming,
        "multi_tenant_serving": serving,
        "summary": _summarize(workloads, overheads, pool, streaming,
                              serving),
    }
    if verbose:
        s = payload["summary"]
        print(f"{'basket':>15}: shuffle-write "
              f"{s['records_per_sec_current']:,.0f} rec/s; wordcount "
              f"{s['wordcount_sim_events']} sim events")
    return payload


def pool_summary(pool: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """The summary's pool fields from a :func:`measure_pool_backend`
    report; all None when the sweep did not run."""
    if pool is None:
        return dict.fromkeys(("pool_speedup", "pool_workers",
                              "pool_insufficient_cores"))
    return {"pool_speedup": pool["speedup"], "pool_workers": pool["workers"],
            "pool_insufficient_cores": pool["insufficient_cores"]}


def _summarize(workloads: Dict[str, Any], overheads: Dict[str, Any],
               pool: Optional[Dict[str, Any]], streaming: Dict[str, Any],
               serving: Dict[str, Any]) -> Dict[str, Any]:
    writes = [workloads[n]["shuffle_write"] for n in HEADLINE]
    overload = streaming["scenarios"]["uniform"]["overload"]
    mixes = serving["mixes"]
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
        "windowed_speedup": workloads["windowed_aggregation"]["speedup"],
        **{row.guard: overheads[section][row.guard]
           for section, row in _OVERHEADS.items()},
        "obs_kernel_observer_overhead":
            overheads["obs_overhead"]["wordcount"]["noop_ratio"] - 1.0,
        "integrity_spill_overhead":
            overheads["integrity_overhead"]["spill"]["on_ratio"] - 1.0,
        **pool_summary(pool),
        "sustained_rates": {
            s: v["sustained_rate"]
            for s, v in streaming["scenarios"].items()
        },
        "backpressure_tightening":
            overload["off"]["pipeline_p99"] / overload["on"]["pipeline_p99"],
        "serving_jain_fairness": {
            m: v["jain_fairness"] for m, v in mixes.items()},
        "serving_balanced_jain": mixes["balanced"]["jain_fairness"],
        "serving_goodput_per_dollar": {
            m: v["goodput_per_dollar"] for m, v in mixes.items()},
        "serving_chaos_conserved": serving["chaos_sweep"]["all_conserved"],
        "serving_chaos_p99_ratio":
            serving["chaos_sweep"]["max_p99_ratio_vs_clean"],
    }


def write_report(payload: Dict[str, Any], path: str) -> None:
    """Write the payload as stable, diff-friendly JSON."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
