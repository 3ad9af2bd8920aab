"""The equivalence lattice: one seeded harness for the execution contract.

Seeded programs run in every cell of ExecOptions (fusion x checksums;
SQL adds columnar x adaptive) x executor (local, pool, sim, sim+pool)
x fault plan (none, node death, ``data_corrupt``; sim executors only),
and :func:`check` asserts each row of the execution-contract table in
DESIGN.md once, labelled (a)-(f) as there.  Tier-1 runs
:data:`TIER1_SEEDS`; :func:`sweep` runs a wider seed range and returns
the failures instead of raising.
"""

import dataclasses
import functools
import io
import math
import pickle
import random
from collections import Counter
from itertools import product
from typing import Any, Callable, List, NamedTuple

import pytest

from repro.chaos import ClusterChaos, EngineChaos, FaultPlan, InjectionTrace
from repro.cluster import make_cluster
from repro.dataflow import (CostModel, DataflowContext, EngineConfig,
                            ExecOptions, ProcessPoolBackend, SimEngine,
                            fusion)
from repro.resilience import ResiliencePolicies, RetryPolicy
from repro.simcore import Simulator
from repro.sql import (AdaptiveConfig, DataFrame, avg_, col, count_, max_,
                       min_, sum_)
from repro.sql.logical import Limit, OrderBy

from .dataflow.test_combine_sink import AGGREGATORS, local_buckets
from .dataflow.test_fusion import random_chain
from .sql.test_columnar import sales_rows
from .sql.test_join_semantics import frame

#: seed 4's node-death plan fails a node at 0.05 s, inside every job
TIER1_SEEDS = (4,)

EXECUTORS = ("local", "pool", "sim", "sim+pool")
SIM_EXECUTORS = ("sim", "sim+pool")
FAULT_KINDS = ("node_fail", "slow_node", "task_crash", "lost_shuffle",
               "data_corrupt")
NODES = [f"h{r}_{i}" for r in range(2) for i in range(4)]
#: isolates hot keys: no broadcast, low skew thresholds, no measuring
SKEW = AdaptiveConfig(broadcast_rows=1, skew_min_rows=100, skew_factor=2.0,
                      measure=False)
ADAPTIVE = (None, AdaptiveConfig(), SKEW)
PLANS = {
    "none": lambda seed: None,
    "node_death": lambda seed: FaultPlan.renewal(
        seed, horizon=0.3, rates={"node_fail": 3.0, "slow_node": 6.0,
                                  "task_crash": 15.0, "lost_shuffle": 10.0},
        targets=NODES, mean_duration=0.08),
    "data_corrupt": lambda seed: FaultPlan.renewal(
        seed, horizon=0.3, rates={"data_corrupt": 20.0}),
}
ENGINE = EngineConfig(resilience=ResiliencePolicies(
    retry=RetryPolicy(max_attempts=9)))
COST = CostModel(cpu_per_record=2e-4)


# -- program generators ------------------------------------------------------


def shuffle_workloads():
    def wordcount(ctx):
        return (ctx.parallelize([f"w{i % 23}" for i in range(300)], 5)
                .map(lambda w: (w, 1)).reduce_by_key(lambda a, b: a + b, 4))

    def sort(ctx):
        rng = random.Random(7)
        data = [rng.randrange(1000) for _ in range(200)]
        return ctx.parallelize(data, 4).key_by(lambda x: x).sort_by_key()

    def join(ctx):
        return ctx.parallelize([(i % 11, i) for i in range(120)], 4).join(
            ctx.parallelize([(i % 7, -i) for i in range(90)], 3), 5)

    def distinct_group(ctx):
        return (ctx.parallelize([i % 17 for i in range(250)], 6).distinct(4)
                .key_by(lambda x: x % 3).group_by_key(2))

    def chained_shuffles(ctx):
        return (ctx.parallelize(range(200), 5).map(lambda x: (x % 13, x))
                .reduce_by_key(lambda a, b: a + b, 4)
                .map(lambda kv: (kv[1] % 5, kv[0])).group_by_key(3)
                .map_values(sorted))

    return [wordcount, sort, join, distinct_group, chained_shuffles]


def random_query(df, rng):
    numeric, cats, q = ["price", "qty"], ["region", "product"], df
    for _ in range(rng.randrange(1, 5)):
        kind = rng.randrange(4)
        if kind == 0:
            q = q.where(col(rng.choice(numeric)) > rng.uniform(0, 8))
        elif kind == 1:
            c, name = rng.choice(numeric), f"d{rng.randrange(1000)}"
            q = q.with_column(name, col(c) * rng.randrange(1, 4) + 1)
            numeric = numeric + [name]
        elif kind == 2:
            c, name = rng.choice(numeric), f"u{rng.randrange(1000)}"
            q = q.with_column(name, col(c).apply(
                lambda v, _m=rng.randrange(2, 5): (v * _m) if v else v,
                "udf"))
            numeric = numeric + [name]
        else:
            q = q.where(~(col(rng.choice(cats)) == rng.choice(
                ["na", "p1", "p7", "zz"])))
    if rng.random() < 0.6:
        keys = rng.sample(cats, rng.randrange(1, 3))
        c = rng.choice(numeric)
        q = q.group_by(*keys).agg(
            n=count_(), s=sum_(col(c)), m=avg_(col(c)),
            lo=min_(col(c)), hi=max_(col(c)))
    return q


def join_rows(rng, n, keyspace, skew=0.0, null_rate=0.0, extra="v"):
    def key():
        if null_rate and rng.random() < null_rate:
            return None
        if skew and rng.random() < skew:
            return 0                         # one dominant hot key
        return rng.randrange(keyspace)
    return [{"k": key(), extra: i} for i in range(n)]


def random_join_query(ctx, rng):
    shape = rng.randrange(3)
    skew = rng.choice([0.0, 0.0, 0.6])
    nulls = rng.choice([0.0, 0.15])
    L = frame(ctx, join_rows(rng, rng.randrange(50, 220), 25,
                             skew=skew, null_rate=nulls), "L", ["k", "v"])
    R = frame(ctx, join_rows(rng, rng.randrange(10, 90), 25,
                             null_rate=nulls, extra="w"), "R", ["k", "w"])
    how = rng.choice(["inner", "left"])
    q = L.join(R, on="k", how=how)
    if shape == 1:
        q = (q.where(col("v") > rng.randrange(10))
             .group_by("k").agg(n=count_(), s=sum_(col("w"))
                                if how == "inner" else count_()))
    elif shape == 2:
        q = q.order_by("v", ascending=rng.random() < 0.5).limit(
            rng.randrange(5, 40))
    return q


# every cell builds its program anew; input rows are drawn once per seed
_sales_rows = functools.lru_cache(maxsize=None)(sales_rows)


@functools.lru_cache(maxsize=None)
def _aqe_tables(kind, seed):
    rng = random.Random(seed)
    if kind == "broadcast":
        fact = [{"k": rng.randrange(12), "v": rng.randrange(100)}
                for _ in range(600)]
        return fact, [{"k": i, "label": f"g{i}"} for i in range(12)]
    fact = [{"k": 0 if rng.random() < 0.7 else rng.randrange(1, 30),
             "v": rng.randrange(100)} for _ in range(900)]
    return fact, [{"k": i, "w": i * 2} for i in range(30)]


def aqe_query(ctx, kind, seed):
    """A fact-dim join whose dim side ``AdaptiveConfig()`` broadcasts
    (``kind="broadcast"``) or whose hot key ``SKEW`` isolates."""
    fact, dim = _aqe_tables(kind, seed)
    q = DataFrame.from_rows(ctx, fact, name="fact").join(
        DataFrame.from_rows(ctx, dim, name="dim"), on="k")
    if kind == "broadcast":
        return q.group_by("label").agg(n=count_(), s=sum_(col("v")))
    return q.group_by("k").agg(n=count_(), s=sum_(col("w")))


class Program(NamedTuple):
    name: str
    seed: int                 # also seeds the fault plans
    build: Callable[[DataflowContext], Any]   # -> Dataset or DataFrame
    sql: bool = False
    combines: bool = False    # a combine-sink-eligible map-side combine


def programs(seeds) -> List[Program]:
    """Every lattice program for ``seeds``; the fixed workloads once."""
    out = [Program(f"shuffle:{w.__name__}", 0, w)
           for w in shuffle_workloads()]
    for s in seeds:
        out += [Program(f"chain-{agg}:{s}", s, lambda ctx, _s=s, _a=agg:
                        AGGREGATORS[_a](random_chain(ctx, random.Random(_s))
                                        .map(lambda x: (x % 5, x))),
                        combines=True) for agg in sorted(AGGREGATORS)]
        out += [Program(f"query:{s}", s, lambda ctx, _s=s: random_query(
                    DataFrame.from_rows(ctx, _sales_rows(n=250, seed=_s)),
                    random.Random(_s)), sql=True),
                Program(f"join:{s}", s, lambda ctx, _s=s: random_join_query(
                    ctx, random.Random(_s)), sql=True)]
        out += [Program(f"{kind}:{s}", s, lambda ctx, _k=kind, _s=s:
                        aqe_query(ctx, _k, _s), sql=True)
                for kind in ("broadcast", "skew")]
    return out


# -- running one cell --------------------------------------------------------


def value_bytes(obj) -> bytes:
    """``obj`` pickled with the memo off, so object aliasing (which
    follows the transport, see DESIGN.md) does not show in the bytes."""
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=4)
    pickler.fast = True
    pickler.dump(obj)
    return buf.getvalue()


@dataclasses.dataclass
class Run:
    """What one lattice cell observably produced."""

    rows: Any = None
    ordered: bool = False      # an order_by(+limit) query
    kinds: tuple = ()          # adaptive rewrites that fired
    ledger: bytes = b""        # local: shuffle store and metrics
    volume: dict = None        # local, pool: ShuffleMetrics per shuffle
    sim_s: str = ""            # repr of the simulated end time
    events: int = 0            # kernel events processed
    trace: tuple = ()          # injection-trace signature
    account: tuple = (0, 0, 0, 0)   # injected/detected/discarded/latent
    metrics: Any = None        # JobMetrics of a sim run
    blob: bytes = b""          # value_bytes(rows)
    reprs: tuple = ()


def run_cell(program: Program, options: ExecOptions, executor: str,
             plan: str, pool: ProcessPoolBackend) -> Run:
    ctx = DataflowContext(default_parallelism=4, options=options)
    if executor in ("pool", "sim+pool"):
        ctx.attach_pool(pool)
        ctx.backend = "pool"
    ds, run = program.build(ctx), Run()
    if program.sql:
        query, ds = ds, ds.to_dataset()
        root = query.plan     # order_by(...).limit(n) or order_by(...)
        root = root.children[0] if isinstance(root, Limit) else root
        run.ordered = isinstance(root, OrderBy)
        report = query.last_adaptive_report
        run.kinds = tuple(report.kinds()) if report else ()
    try:
        if executor in ("local", "pool"):
            run.rows = ds.collect()
            ex = ctx.local_executor if executor == "local" \
                else ctx.pooled_executor
            run.volume = {sid: (m.records_in, m.records_written,
                                m.bytes_written)
                          for sid, m in ex.shuffle_metrics.items()}
        if executor == "local":
            run.ledger = pickle.dumps((
                {sid: local_buckets(ex, sid) for sid in ex._shuffle_store},
                run.volume))
        if executor in SIM_EXECUTORS:
            sim = Simulator()
            cluster = make_cluster(sim, n_racks=2, nodes_per_rack=4)
            engine = SimEngine(cluster, config=ENGINE, cost_model=COST)
            trace, faults = InjectionTrace(), PLANS[plan](program.seed)
            if faults is not None:
                ClusterChaos(cluster, faults, trace).start()
                EngineChaos(engine, faults, trace).start()
            res = sim.run_until_done(engine.collect(ds))
            run.rows, run.metrics = res.value, res.metrics
            run.sim_s, run.events = repr(sim.now), sim.events_processed
            run.trace = trace.signature()
            run.account = (trace.count("data_corrupt"),
                           engine.integrity_detected,
                           engine.integrity_latent_discarded,
                           len(engine.audit_shuffle_integrity()))
    finally:
        if executor in ("pool", "sim+pool"):
            ctx.pooled_executor.clear()
    run.blob, run.reprs = value_bytes(run.rows), tuple(map(repr, run.rows))
    return run


def cells(program: Program):
    sql = product((True, False), ADAPTIVE) if program.sql else [(True, None)]
    for (f, c), (k, a), executor in product(product((True, False), repeat=2),
                                            sql, EXECUTORS):
        options = ExecOptions(fusion=f, checksums=c, columnar=k, adaptive=a)
        for plan in PLANS if executor in SIM_EXECUTORS else ["none"]:
            yield options, executor, plan


# -- the contract ------------------------------------------------------------


def _multiset_close(a: List[dict], b: List[dict]) -> bool:
    """Equal as multisets of rows, float values within rel_tol 1e-12."""
    def key(row):
        exact = [(k, v) for k, v in row.items() if not isinstance(v, float)]
        return repr(exact), [v for v in row.values() if isinstance(v, float)]
    ka, kb = sorted(map(key, a)), sorted(map(key, b))
    return len(ka) == len(kb) and all(
        ea == eb and len(fa) == len(fb) and all(
            math.isclose(x, y, rel_tol=1e-12) for x, y in zip(fa, fb))
        for (ea, fa), (eb, fb) in zip(ka, kb))


def check(program: Program, pool: ProcessPoolBackend) -> Counter:
    """Run ``program`` in every cell and assert the contract; returns
    what the runs exercised, for :func:`vacuous`."""
    fusion.reset_segment_cache()
    runs = {cell: run_cell(program, *cell, pool) for cell in cells(program)}
    stats: Counter = Counter()
    ref = {}     # (columnar, adaptive) -> executor -> its first run
    for (options, executor, plan), run in runs.items():
        at = f"[{program.name}] {executor} {plan} {options}"
        group = ref.setdefault((options.columnar, options.adaptive), {})
        assert run.blob == group.setdefault(executor, run).blob, f"(a) {at}"
        assert run.reprs == group["local"].reprs, f"(a) vs local: {at}"
        injected, detected, discarded, latent = run.account
        assert injected == detected + discarded + latent, f"(e) {at}"
        unfused = runs[dataclasses.replace(options, fusion=False),
                       executor, plan]
        assert run.ledger == unfused.ledger, f"(f) local ledger: {at}"
        assert executor in SIM_EXECUTORS or run.volume == runs[
            options, "local", "none"].volume, f"(f) shuffle volume: {at}"
        stats.update(f"{options.adaptive is SKEW}:{k}" for k in run.kinds)
        if executor not in SIM_EXECUTORS:
            continue
        m = run.metrics
        stats.update(what for _t, what, _d in run.trace)
        stats["prefetched"] += m.pool_prefetched
        assert m.pool_prefetch_fallbacks == 0, f"(f) prefetch: {at}"
        if program.combines and options.fusion:
            want = {"prefetched": m.pool_prefetched} \
                if executor == "sim+pool" and m.pool_prefetched else {}
            assert m.combine_sink_fallbacks == want, f"(f) sink: {at}"
        if plan != "data_corrupt":
            first = runs[ExecOptions(columnar=options.columnar,
                                     adaptive=options.adaptive), "sim", plan]
            assert (run.sim_s, run.trace) == (first.sim_s, first.trace), \
                f"(d) sim_s or trace: {at}"
            assert run.events == unfused.events, f"(d) events: {at}"
    for adaptive in ADAPTIVE if program.sql else ():
        at = f"[{program.name}] adaptive={adaptive}"
        on = {k: ref[k, adaptive]["local"] for k in (True, False)}
        assert on[True].reprs == on[False].reprs, f"(b) {at}"
        off = ref[True, None]["local"]
        assert _multiset_close(off.rows, on[True].rows), f"(c) {at}"
        assert not off.ordered or off.blob == on[True].blob, f"(c) {at}"
    for plan, adaptive in product(("node_death", "data_corrupt"),
                                  ADAPTIVE if program.sql else (None,)):
        cell = (ExecOptions(adaptive=adaptive), "sim", plan)
        again = dataclasses.replace(run_cell(program, *cell, pool),
                                    metrics=runs[cell].metrics)
        assert again == runs[cell], f"(d) [{program.name}] {cell} repeat"
    stats["sink_compiled"] += any(shape[-1] == fusion.SINK_KIND
                                  for shape in fusion.segment_cache_shapes())
    return stats


def vacuous(stats: Counter) -> List[str]:
    """What the checked programs never exercised (empty: nothing)."""
    return [f"never {what}" for what, key in [
        *((f"injected {kind}", kind) for kind in FAULT_KINDS),
        ("broadcast under AdaptiveConfig()", "False:broadcast_joins"),
        ("repartitioned under SKEW", "True:skew_repartitions"),
        ("prefetched on sim+pool", "prefetched"),
        ("compiled the combine sink", "sink_compiled")] if not stats[key]]


def sweep(seeds) -> List[str]:
    """Check every program for ``seeds``; return one line per failure."""
    pool, failures, stats = ProcessPoolBackend(n_workers=2), [], Counter()
    try:
        for program in programs(seeds):
            try:
                stats += check(program, pool)
            except AssertionError as exc:
                failures.append(f"{program.name}: {exc}")
    finally:
        pool.shutdown()
    return failures + vacuous(stats)


# -- tier-1 slice ------------------------------------------------------------

TIER1 = programs(TIER1_SEEDS)
_SLICE_STATS = {}     # program name -> what its check exercised


@pytest.fixture(scope="module")
def pool():
    backend = ProcessPoolBackend(n_workers=2)
    yield backend
    backend.shutdown()


@pytest.mark.parametrize("program", TIER1, ids=lambda p: p.name)
def test_lattice(program, pool):
    _SLICE_STATS[program.name] = check(program, pool)


def test_lattice_is_not_vacuous(pool):
    for program in TIER1:       # run alone, this fills in the slice
        if program.name not in _SLICE_STATS:
            _SLICE_STATS[program.name] = check(program, pool)
    assert not vacuous(sum(_SLICE_STATS.values(), Counter()))
